"""Property-based tests (hypothesis) for the compiler, IR, and CKKS substrate.

The key invariants checked here:

* **Compiler correctness** — for randomly generated frontend programs, the
  compiled program (with RESCALE/MOD_SWITCH/RELINEARIZE inserted) computes the
  same function as the input program under the identity scheme, and always
  passes validation.
* **Serialization** — the proto round-trip preserves every field and the semantics.
* **Encoder** — CKKS encoding followed by decoding is close to the identity,
  and is additively homomorphic.
* **Mock backend metadata** — arbitrary valid op sequences never violate the
  metadata invariants (scales add on multiply, levels increase on rescale).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.backend import MockBackend
from repro.core import CompilerOptions, Executor, compile_program, execute_reference
from repro.core.analysis import validate
from repro.core.ir import Program
from repro.core.types import Op, ValueType
from repro.errors import EvaError
from repro.frontend import EvaProgram
from test_analysis import assert_key_switching_invariants
from test_instructions import assert_round_trips

# ---------------------------------------------------------------------------
# Random frontend program generation
# ---------------------------------------------------------------------------

VEC_SIZE = 8


@st.composite
def frontend_programs(draw):
    """Generate a random frontend program with 1-2 encrypted inputs."""
    num_inputs = draw(st.integers(1, 2))
    program = Program("random", vec_size=VEC_SIZE)
    pool = []
    for index in range(num_inputs):
        pool.append(program.input(f"x{index}", ValueType.CIPHER, scale=25))
    pool.append(program.constant(draw(st.floats(-1.5, 1.5)), scale=10))
    pool.append(
        program.constant(
            np.asarray(draw(st.lists(st.floats(-1, 1), min_size=VEC_SIZE, max_size=VEC_SIZE))),
            scale=15,
        )
    )
    num_ops = draw(st.integers(2, 10))
    for _ in range(num_ops):
        op = draw(st.sampled_from([Op.ADD, Op.SUB, Op.MULTIPLY, Op.NEGATE, Op.ROTATE_LEFT, Op.ROTATE_RIGHT]))
        if op in (Op.ADD, Op.SUB, Op.MULTIPLY):
            a = draw(st.sampled_from(pool))
            b = draw(st.sampled_from(pool))
            if a.value_type is not ValueType.CIPHER and b.value_type is not ValueType.CIPHER:
                continue
            term = program.make_term(op, [a, b])
        elif op is Op.NEGATE:
            a = draw(st.sampled_from(pool))
            if a.value_type is not ValueType.CIPHER:
                continue
            term = program.make_term(op, [a])
        else:
            a = draw(st.sampled_from(pool))
            if a.value_type is not ValueType.CIPHER:
                continue
            term = program.make_term(op, [a], rotation=draw(st.integers(1, VEC_SIZE - 1)))
        pool.append(term)
    cipher_terms = [t for t in pool if t.value_type is ValueType.CIPHER and t.is_instruction]
    if not cipher_terms:
        x = program.inputs["x0"]
        cipher_terms = [program.make_term(Op.MULTIPLY, [x, x])]
    program.set_output("out", cipher_terms[-1], scale=25)
    inputs = {
        f"x{i}": np.asarray(
            draw(st.lists(st.floats(-1, 1), min_size=VEC_SIZE, max_size=VEC_SIZE))
        )
        for i in range(num_inputs)
    }
    return program, inputs


@settings(max_examples=40, deadline=None)
@given(frontend_programs())
def test_compiled_program_preserves_semantics(case):
    program, inputs = case
    # Multiplicative depth can make parameter selection exceed the security
    # table for extreme random programs; those raise a clean EvaError.
    try:
        result = compile_program(program, options=CompilerOptions())
    except EvaError:
        assume(False)
        return
    validate(result.program, max_rescale_bits=60)
    reference = execute_reference(program, inputs)["out"]
    compiled_reference = execute_reference(result.program, inputs)["out"]
    np.testing.assert_allclose(compiled_reference, reference, rtol=1e-9, atol=1e-9)
    backend_out = Executor(result, MockBackend(error_model="none")).execute(inputs)["out"]
    np.testing.assert_allclose(backend_out, reference, rtol=1e-7, atol=1e-7)


@settings(max_examples=40, deadline=None)
@given(frontend_programs())
def test_compiled_program_always_validates(case):
    program, _ = case
    try:
        result = compile_program(program, options=CompilerOptions())
    except EvaError:
        assume(False)
        return
    validate(result.program, max_rescale_bits=60)
    assert result.parameters.modulus_count >= 2
    # One 60-bit special prime, or the group of them key switching is shaped with.
    assert_key_switching_invariants(result.parameters, CompilerOptions(), result.program)


@settings(max_examples=30, deadline=None)
@given(frontend_programs())
def test_serialization_roundtrip_preserves_semantics(case):
    program, inputs = case
    reference = execute_reference(program, inputs)["out"]
    restored = assert_round_trips(program)
    np.testing.assert_allclose(
        execute_reference(restored, inputs)["out"], reference, rtol=1e-9, atol=1e-9
    )


# ---------------------------------------------------------------------------
# PyEVA expression properties
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-1, 1), min_size=8, max_size=8),
    st.integers(1, 7),
    st.integers(1, 6),
)
def test_rotation_composition(values, step_a, step_b):
    """Rotating by a then b equals rotating by (a+b) mod vec_size."""
    program = EvaProgram("rot", vec_size=8, default_scale=25)
    with program:
        x = program.input_encrypted("x", 25)
        program.output("composed", ((x << step_a) << step_b) * 1.0, 25)
        program.output("direct", (x << ((step_a + step_b) % 8)) * 1.0, 25)
    out = execute_reference(program.graph, {"x": np.asarray(values)})
    np.testing.assert_allclose(out["composed"], out["direct"], rtol=1e-12, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=8, max_size=8), st.integers(2, 6))
def test_power_matches_repeated_multiplication(values, exponent):
    program = EvaProgram("pow", vec_size=8, default_scale=25)
    with program:
        x = program.input_encrypted("x", 25)
        program.output("power", x**exponent, 25)
    out = execute_reference(program.graph, {"x": np.asarray(values)})["power"]
    np.testing.assert_allclose(out, np.asarray(values) ** exponent, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# CKKS encoder properties
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def encoder():
    from repro.ckks.encoder import CkksEncoder

    return CkksEncoder(512)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.large_base_example])
@given(st.lists(st.floats(-1, 1), min_size=256, max_size=256))
def test_encoder_roundtrip_property(encoder, values):
    scale = 2.0**24
    decoded = encoder.decode_real(encoder.encode(np.asarray(values), scale), scale)
    np.testing.assert_allclose(decoded, values, atol=1e-3)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.large_base_example])
@given(
    st.lists(st.floats(-1, 1), min_size=256, max_size=256),
    st.lists(st.floats(-1, 1), min_size=256, max_size=256),
)
def test_encoder_additivity_property(encoder, a, b):
    scale = 2.0**24
    a, b = np.asarray(a), np.asarray(b)
    summed = encoder.encode(a, scale) + encoder.encode(b, scale)
    np.testing.assert_allclose(encoder.decode_real(summed, scale), a + b, atol=1e-2)


# ---------------------------------------------------------------------------
# Mock backend metadata properties
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["multiply", "rotate", "add", "rescale", "mod_switch"]), min_size=1, max_size=8))
def test_mock_backend_metadata_invariants(ops):
    from repro.core.analysis.parameters import EncryptionParameters

    params = EncryptionParameters(2048, [30] * 8)
    context = MockBackend(error_model="none").create_context(params)
    context.generate_keys()
    cipher = context.encrypt(np.ones(4), 25)
    level, scale = 0, 25.0
    for op in ops:
        try:
            if op == "multiply":
                other = context.encrypt(np.ones(4), 25)
                for _ in range(level):
                    other = context.mod_switch(other)
                cipher = context.relinearize(context.multiply(cipher, other))
                scale += 25.0
            elif op == "rotate":
                cipher = context.rotate(cipher, 1)
            elif op == "add":
                other = context.encrypt(np.ones(4), scale)
                for _ in range(level):
                    other = context.mod_switch(other)
                cipher = context.add(cipher, other)
            elif op == "rescale":
                cipher = context.rescale(cipher, 30)
                scale -= 30.0
                level += 1
            elif op == "mod_switch":
                cipher = context.mod_switch(cipher)
                level += 1
        except EvaError:
            # Running out of modulus or scale is legal behaviour; stop here.
            break
        assert context.level(cipher) == level
        assert context.scale_bits(cipher) == pytest.approx(scale)
