"""Tests for the Section 8.3 applications (arithmetic, regression, image processing)."""

import numpy as np
import pytest

from repro.backend import MockBackend
from repro.core import CompilerOptions, Executor, execute_reference
from repro.core.analysis import select_rotation_steps
from repro.apps import (
    build_harris_program,
    build_linear_regression_program,
    build_multivariate_regression_program,
    build_path_length_program,
    build_polynomial_regression_program,
    build_sobel_program,
    random_image,
    random_path,
    reference_harris,
    reference_linear_regression,
    reference_multivariate_regression,
    reference_path_length,
    reference_polynomial_regression,
    reference_sobel,
    run_application,
    sqrt_poly_reference,
)


def run_on_mock(program, inputs, seed=0):
    compiled = program.compile()
    return Executor(compiled, MockBackend(seed=seed)).execute(inputs)


class TestPathLength:
    def test_matches_reference(self):
        program = build_path_length_program(num_points=128)
        path = random_path(128, seed=1)
        result = run_on_mock(program, path)
        expected = reference_path_length(path["x"], path["y"], path["z"])
        assert result["length"][0] == pytest.approx(expected, abs=1e-2)

    def test_sqrt_approximation_reasonable(self):
        x = np.linspace(0.01, 1.0, 50)
        approx = sqrt_poly_reference(x)
        assert np.max(np.abs(approx - np.sqrt(x))) < 0.3

    def test_program_uses_rotations_and_sum(self):
        program = build_path_length_program(num_points=64)
        compiled = program.compile()
        assert len(compiled.rotation_steps) >= 6  # log2(64) reduction steps + the diff shift

    def test_lines_of_code_scale(self):
        # Table 8 reports tens of lines; the builder itself is a single screen.
        import inspect

        from repro.apps import path_length

        source = inspect.getsource(path_length.build_path_length_program)
        assert len(source.splitlines()) < 50


class TestRegression:
    def test_linear(self):
        program = build_linear_regression_program(vec_size=256)
        x = np.random.default_rng(0).uniform(-1, 1, 256)
        result = run_on_mock(program, {"x": x})
        np.testing.assert_allclose(result["prediction"], reference_linear_regression(x), atol=1e-3)

    def test_polynomial(self):
        program = build_polynomial_regression_program(vec_size=256)
        x = np.random.default_rng(1).uniform(-1, 1, 256)
        result = run_on_mock(program, {"x": x})
        np.testing.assert_allclose(
            result["prediction"], reference_polynomial_regression(x), atol=1e-3
        )

    def test_multivariate(self):
        program = build_multivariate_regression_program(vec_size=256)
        features = {f"x{i}": np.random.default_rng(i).uniform(-1, 1, 256) for i in range(5)}
        result = run_on_mock(program, features)
        np.testing.assert_allclose(
            result["prediction"], reference_multivariate_regression(features), atol=1e-3
        )

    def test_polynomial_horner_depth(self):
        program = build_polynomial_regression_program(vec_size=64)
        assert program.graph.multiplicative_depth() <= 4

    def test_custom_coefficients(self):
        coefficients = (1.0, 0.0, -2.0)
        program = build_polynomial_regression_program(coefficients, vec_size=64)
        x = np.linspace(-1, 1, 64)
        reference = reference_polynomial_regression(x, coefficients)
        out = execute_reference(program.graph, {"x": x})["prediction"]
        np.testing.assert_allclose(out, reference, atol=1e-9)


class TestImageProcessing:
    @pytest.mark.parametrize("size", [8, 16])
    def test_sobel_matches_reference(self, size):
        program = build_sobel_program(image_size=size)
        image = random_image(size, seed=2)
        result = run_on_mock(program, {"image": image.reshape(-1)})
        np.testing.assert_allclose(
            result["edges"], reference_sobel(image).reshape(-1), atol=1e-3
        )

    def test_sobel_rotation_steps(self):
        program = build_sobel_program(image_size=16)
        # The stencil's raw taps need 8 Galois keys; the BSGS planner keeps
        # only the babies {1, 2} and the giants {16, 32} (which are taps
        # themselves, so the decomposition costs no extra rotations).
        compiled = program.compile()
        assert set(compiled.rotation_steps) == {1, 2, 16, 32}
        assert set(select_rotation_steps(program.graph)) == {1, 2, 16, 17, 18, 32, 33, 34}

    def test_harris_matches_reference(self):
        program = build_harris_program(image_size=8)
        image = random_image(8, seed=3)
        result = run_on_mock(program, {"image": image.reshape(-1)})
        np.testing.assert_allclose(
            result["response"], reference_harris(image).reshape(-1), atol=5e-3
        )

    def test_harris_is_more_complex_than_sobel(self):
        # The paper calls Harris one of the most complex CKKS programs; it has
        # more instructions and at least comparable multiplicative depth.
        sobel = build_sobel_program(image_size=8)
        harris = build_harris_program(image_size=8)
        assert len(harris.graph) > len(sobel.graph)
        assert harris.graph.multiplicative_depth() >= 3

    def test_harris_parameters_within_security_budget(self):
        compiled = build_harris_program(image_size=16).compile()
        assert compiled.parameters.poly_modulus_degree <= 65536


class TestRunApplicationHelper:
    def test_run_application(self):
        program = build_linear_regression_program(vec_size=64)
        x = np.linspace(-1, 1, 64)
        result = run_application(program, {"x": x}, backend=MockBackend(seed=0))
        np.testing.assert_allclose(result["prediction"], reference_linear_regression(x), atol=1e-3)

    def test_run_application_with_chet_policy(self):
        program = build_polynomial_regression_program(vec_size=64)
        x = np.linspace(-0.5, 0.5, 64)
        result = run_application(
            program, {"x": x}, backend=MockBackend(seed=0), options=CompilerOptions(policy="chet")
        )
        np.testing.assert_allclose(
            result["prediction"], reference_polynomial_regression(x), atol=1e-3
        )
