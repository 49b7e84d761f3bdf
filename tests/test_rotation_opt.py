"""Tests for the rotation-cost layer: hoisting, BSGS planning and lane keys.

Two optimizations share one correctness obligation — the optimized program
must compute exactly what the source program means:

* rotation hoisting rewrites ``sum_j c_j * rot_s(y_j)`` into
  ``rot_s(sum_j roll(c_j, s) * y_j)``, one rotation per distinct step;
* BSGS decomposes ``rot(s)`` into ``rot_baby(s % B)(rot_giant(B * (s // B)))``
  so k distinct steps need O(sqrt(k)) Galois keys.

The property tests here drive random step sets, widths, and coefficients
through the full compiler and compare against ``execute_reference`` on the
exact mock backend; a real-CKKS spot check ties the whole chain to actual
key-switching.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.harris import build_harris_program
from repro.apps.sobel import build_sobel_program
from repro.backend import CkksBackend, MockBackend
from repro.backend.cost_model import DEFAULT_COST_MODEL
from repro.core import CompilerOptions, Executor, compile_program, execute_reference
from repro.core.analysis.rotations import (
    _plan_for_base,
    lane_wrap_step,
    plan_rotation_steps,
    select_rotation_steps,
)
from repro.core.types import Op
from repro.frontend import EvaProgram, input_encrypted, output

EXACT = dict(error_model="none")


def rotation_count(compilation) -> int:
    counts = compilation.program.op_counts()
    return counts.get(Op.ROTATE_LEFT, 0) + counts.get(Op.ROTATE_RIGHT, 0)


def random_rotation_sum(rng, vec_size, n_terms, name="randsum"):
    """sum_j c_j * (x << s_j), with repeated steps and occasional bare terms."""
    steps = [int(rng.integers(1, vec_size)) for _ in range(n_terms)]
    coeffs = [float(rng.uniform(-2, 2)) for _ in range(n_terms)]
    program = EvaProgram(name, vec_size=vec_size, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        acc = x * float(rng.uniform(-1, 1))
        for step, coeff in zip(steps, coeffs):
            term = x << step
            if rng.random() < 0.75:
                term = term * coeff
            acc = acc + term
        output("y", acc, 25)
    return program


def lane_reference(program, values, width):
    """Each lane's ``execute_reference`` answer on that lane's request alone."""
    return np.concatenate([
        execute_reference(program.graph, {"x": lane})["y"][:width]
        for lane in values.reshape(-1, width)
    ])  # fmt: skip


class TestHoistedEquivalence:
    """Optimized compilation == the source's reference semantics (exact mock)."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_rotation_sums_match_the_reference(self, seed):
        rng = np.random.default_rng(seed)
        vec_size = 1 << int(rng.integers(4, 8))
        program = random_rotation_sum(rng, vec_size, int(rng.integers(2, 7)))
        optimized = compile_program(program.graph)
        values = {"x": rng.uniform(-1, 1, vec_size)}
        got = Executor(optimized, MockBackend(**EXACT)).execute(values)
        want = execute_reference(program.graph, values)
        np.testing.assert_allclose(got["y"], want["y"], atol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_lane_lowered_sums_match_the_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        vec_size = 1 << int(rng.integers(5, 8))
        lane = 1 << int(rng.integers(2, 5))
        program = random_rotation_sum(
            rng, lane, int(rng.integers(2, 6)), name="lanesum"
        )
        # Steps must stay lane-local for the lowering to apply; the frontend
        # graph carries steps < lane, compiled at the wider vec_size.
        program.graph.vec_size = vec_size
        optimized = compile_program(
            program.graph, options=CompilerOptions(lane_width=lane)
        )
        values = rng.uniform(-1, 1, vec_size)
        got = Executor(optimized, MockBackend(**EXACT)).execute({"x": values})
        np.testing.assert_allclose(got["y"], lane_reference(program, values, lane), atol=1e-9)
        # The composed wrap form needs at most one key per in-lane step plus
        # the shared wrap step (a separate wrap rotation per step needs two).
        assert len(optimized.rotation_steps) <= len(select_rotation_steps(program.graph)) + 1

    def test_hoisting_reduces_rotations_on_shared_source(self):
        # Classic stencil row: five taps of one source, all hoistable.
        program = EvaProgram("stencil", vec_size=64, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            acc = x * 0.1
            for step, coeff in [(1, 0.5), (2, -0.25), (3, 0.125), (4, 1.5)]:
                acc = acc + (x << step) * coeff
            output("y", acc, 25)
        optimized = compile_program(program.graph)
        assert rotation_count(optimized) <= program.graph.op_counts()[Op.ROTATE_LEFT] == 4
        values = {"x": np.linspace(-1, 1, 64)}
        np.testing.assert_allclose(
            Executor(optimized, MockBackend(**EXACT)).execute(values)["y"],
            execute_reference(program.graph, values)["y"],
            atol=1e-9,
        )


class TestBsgsPlanner:
    def test_dense_step_set_needs_sqrt_keys(self):
        steps = list(range(1, 64))  # 63 distinct steps
        plan = plan_rotation_steps(steps, 128)
        assert plan.decomposed
        # B babies + 63//B giants: minimized around sqrt(63) ~ 8, and every
        # giant is itself one of the steps, so the plan adds no rotation.
        assert (plan.baby_base, len(plan.key_steps), plan.extra_rotations) == (8, 14, 0)
        for step, (giant, baby) in plan.decompositions.items():
            assert giant + baby == step
            assert giant in plan.key_steps and baby in plan.key_steps

    def test_pure_power_of_two_set_stays_direct(self):
        # {1,2,4,...}: every step is a pure baby or giant of any base, so
        # no decomposition can beat the direct key set.
        steps = [1, 2, 4, 8, 16, 32]
        plan = plan_rotation_steps(steps, 128)
        assert not plan.decomposed
        assert list(plan.key_steps) == steps

    def test_fewer_than_two_steps_stay_direct(self):
        # Steps normalize mod vec_size and zero drops out: one step is left.
        plan = plan_rotation_steps([0, 64, 69, 5], 64)
        assert not plan.decomposed
        assert list(plan.key_steps) == [5]

    @pytest.mark.parametrize("base", [2, 4, 8, 16])
    def test_a_plan_charges_giants_that_are_not_direct_steps(self, base):
        # A giant the program computes anyway as a direct step costs no
        # rotation; the planner must know that when weighing candidates.
        steps = [8, 9, 10, 16, 17, 18]
        plan = _plan_for_base(steps, base, 64)
        direct = set(steps) - set(plan.decompositions)
        giants = {g for g, _ in plan.decompositions.values()}
        assert plan.extra_rotations == len(giants - direct)

    @pytest.mark.parametrize("seed", range(10))
    def test_plan_always_covers_every_step(self, seed):
        rng = np.random.default_rng(seed)
        vec_size = 1 << int(rng.integers(4, 10))
        steps = sorted(
            set(int(s) for s in rng.integers(1, vec_size, rng.integers(2, 20)))
        )
        bases = [1 << k for k in range(1, vec_size.bit_length() - 1)]
        for plan in [plan_rotation_steps(steps, vec_size)] + [
            _plan_for_base(steps, base, vec_size) for base in bases
        ]:
            keys = set(plan.key_steps)
            for step in steps:
                if step in plan.decompositions:
                    giant, baby = plan.decompositions[step]
                    assert (giant + baby) % vec_size == step
                    assert giant in keys and baby in keys
                else:
                    assert step in keys

    def test_compiled_sobel_uses_decomposed_keys(self):
        program = build_sobel_program(16, vec_size=256)
        optimized = compile_program(program.graph)
        assert len(select_rotation_steps(program.graph)) == 8
        assert len(optimized.rotation_steps) == 4


class TestKitKeys:
    def test_exported_galois_keys_are_exactly_the_compilations_steps(self):
        # One kit, one compilation: the client generates one Galois key per
        # rotation step the compiler selected, and no key for another
        # compilation of the same source (here, a wider lane width).
        from repro.api import ClientKit

        program = EvaProgram("kit-keys", vec_size=32, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("y", (x << 1) * 0.5 + (x << 3) * 0.25 + x, 25)
        narrow, wide = (
            compile_program(
                program.graph,
                options=CompilerOptions(max_rescale_bits=25, lane_width=width),
            )
            for width in (4, 8)
        )
        assert set(wide.rotation_steps) - set(narrow.rotation_steps)
        kit = ClientKit(narrow, backend=CkksBackend(seed=3))
        ring = kit.context.context
        expected = {
            str(ring.galois_element_for_step(step % ring.slots))
            for step in narrow.rotation_steps
            if step % ring.slots
        }
        assert set(kit.export_evaluation_keys()["galois_keys"]) == expected
        assert len(expected) == len(narrow.rotation_steps)


class TestRealCkksSpotCheck:
    def test_hoisted_bsgs_compilation_matches_reference(self):
        from repro.core import execute_reference

        program = EvaProgram("ckks-hoist", vec_size=32, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            acc = x * 0.2
            for step, coeff in [(1, 0.5), (2, -0.25), (3, 0.75)]:
                acc = acc + (x << step) * coeff
            output("y", acc, 25)
        compiled = compile_program(
            program.graph, options=CompilerOptions(max_rescale_bits=25)
        )
        rng = np.random.default_rng(31)
        values = {"x": rng.uniform(-1, 1, 32)}
        result = Executor(compiled, CkksBackend(seed=7)).execute(values)
        reference = execute_reference(program.graph, values)
        assert np.max(np.abs(result["y"] - reference["y"])) < 0.05


def _lane_profile(steps, width, vec_size):
    """The lane variant's steps before BSGS: in-lane ``k mod w`` plus the shared wrap."""
    in_lane = {int(step) % width for step in steps} - {0}
    return sorted(in_lane | {lane_wrap_step(width, vec_size)}) if in_lane else []


class TestLaneKeySet:
    @pytest.mark.parametrize("kernel", ["sobel", "harris"])
    @pytest.mark.parametrize("image_size, vec_size", [(8, 256), (8, 512), (16, 1024), (16, 4096)])
    def test_the_modeled_key_set_is_the_compiled_one(self, kernel, image_size, vec_size):
        """A lane variant's Galois keys are the BSGS plan of the solo steps'
        lane profile, at the solo parameters: derivable without compiling the
        variant, at every width."""
        build = {"sobel": build_sobel_program, "harris": build_harris_program}[kernel]
        program = build(image_size, vec_size=vec_size)
        solo = compile_program(program.graph)
        parameters = solo.parameters
        widths = [w for w in (16, 32, 64, 128, 256) if w < vec_size]
        for width in widths:
            modeled = plan_rotation_steps(
                _lane_profile(solo.rotation_steps, width, vec_size),
                vec_size,
                poly_degree=parameters.poly_modulus_degree,
                levels=max(len(parameters.coeff_modulus_bits), 1),
            )
            lane = compile_program(program.graph, options=CompilerOptions(lane_width=width))
            assert list(modeled.key_steps) == lane.rotation_steps, width

    @staticmethod
    def _lane_steps(steps, width=8, vec_size=64):
        program = EvaProgram("lanes", vec_size=vec_size, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            total = x
            for step in steps:
                total = total + (x << step)
            output("y", total, 25)
        options = CompilerOptions(lane_width=width)
        return compile_program(program.graph, options=options).rotation_steps

    def test_steps_that_coincide_in_the_lane_share_a_key(self):
        # 3 and 11 coincide mod 8; the wrap step joins once any in-lane step survives.
        assert lane_wrap_step(8, 64) == 56
        assert self._lane_steps([3, 11]) == [3, 56] == _lane_profile([3, 11], 8, 64)
        assert self._lane_steps([3, 11]) == self._lane_steps([3])

    def test_lane_multiples_need_no_key(self):
        # A shift by a multiple of the lane width leaves every lane as it was.
        assert self._lane_steps([8, 16]) == [] == _lane_profile([8, 16], 8, 64)


class TestServingRotationCounters:
    def test_counters_track_the_rotation_tax(self):
        from repro.api import ClientKit, CompiledProgram
        from repro.serving import EvaServer
        from repro.serving.telemetry import render_prometheus

        program = EvaProgram("rotcount", vec_size=64, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("y", (x << 1) * 0.5 + x, 25)
        backend = MockBackend(**EXACT)
        with EvaServer(backend=backend, workers=1, batch_window=0.0) as server:
            server.register("rotcount", program)
            compiled = compile_program(program.graph)
            per_eval = sum(
                compiled.program.op_counts().get(op, 0)
                for op in (Op.ROTATE_LEFT, Op.ROTATE_RIGHT)
            )
            assert per_eval > 0
            for _ in range(3):
                server.request(
                    "rotcount", {"x": np.ones(64)}, client_id="carol"
                )
            registry = server.telemetry.registry
            rotations = registry.counter_value(
                "serving.rotations", program="rotcount", client="carol"
            )
            keyswitches = registry.counter_value(
                "serving.keyswitch", program="rotcount", client="carol"
            )
            # Three solo evaluations, each paying the compiled graph's
            # rotation count; key switches include relinearizations too.
            assert rotations == 3 * per_eval
            assert keyswitches >= rotations

            # A session registration accrues the bytes its Galois keys hold.
            kit = ClientKit(
                CompiledProgram.compile(program, options=CompilerOptions()),
                backend=backend,
                client_id="carol",
            )
            server.create_session(
                "rotcount", "carol", kit.evaluation_context()
            )
            key_bytes = registry.counter_value(
                "serving.galois.keys_bytes", program="rotcount", client="carol"
            )
            # One key (step 1), held as its (2, d, L+k, N) uint32 form: one
            # digit of both data primes over L + k = 4 primes at N = 8192.
            # Priced by the cost model's 2*r*(r+1)*N*8 it read 2 621 440.
            parameters = compiled.parameters
            assert parameters.rotation_steps == [1] and parameters.poly_modulus_degree == 8192
            assert (parameters.group_size, parameters.special_primes) == (2, 2)
            assert key_bytes == 2 * 1 * 4 * 8192 * 4 == 262_144

            exposition = render_prometheus(server.metrics_snapshot())
            assert 'serving_rotations_total{' in exposition
            assert 'serving_keyswitch_total{' in exposition
            assert 'serving_galois_keys_bytes_total{' in exposition

    def test_the_counted_key_bytes_are_the_forms_a_real_session_holds(self):
        from repro.api import ClientKit, CompiledProgram
        from repro.serving import EvaServer

        program = EvaProgram("rotsum", vec_size=64, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("y", x + (x << 1) + (x << 2) + (x << 5), 25)
        options = CompilerOptions(max_rescale_bits=25)
        counted = []
        for backend in (MockBackend(**EXACT), CkksBackend(seed=3)):
            kit = ClientKit(
                CompiledProgram.compile(program, options=options), backend=backend, client_id="carol"
            )
            with EvaServer(backend=backend, workers=1, batch_window=0.0) as server:
                server.register("rotsum", program, options=options)
                server.create_session("rotsum", "carol", kit.evaluation_context())
                counted.append(
                    server.telemetry.registry.counter_value(
                        "serving.galois.keys_bytes", program="rotsum", client="carol"
                    )
                )
        session = backend.create_evaluation_context(
            kit.compiled.parameters, kit.export_evaluation_keys()
        )
        held = session.evaluator.galois_keys.keys.values()
        assert len(held) == 3
        assert counted == [sum(key.form.nbytes for key in held)] * 2


class TestCostModelTerms:
    def test_galois_key_bytes_scale_with_degree_and_levels(self):
        small = DEFAULT_COST_MODEL.galois_key_bytes(1024, 2)
        assert small == 2 * 2 * 3 * 1024 * 8
        assert DEFAULT_COST_MODEL.galois_key_bytes(2048, 2) == 2 * small
        assert DEFAULT_COST_MODEL.galois_key_bytes(1024, 3) == 2 * 3 * 4 * 1024 * 8

    def test_rotation_plan_seconds_trades_keys_for_rotations(self):
        # Fewer keys is cheaper when extra rotations stay moderate...
        few = DEFAULT_COST_MODEL.rotation_plan_seconds(6, 2, 4096, 3)
        many = DEFAULT_COST_MODEL.rotation_plan_seconds(40, 0, 4096, 3)
        assert few < many
        # ...but a decomposition that adds rotations to every evaluation
        # must pay for them (monotone in extra_rotations).
        assert DEFAULT_COST_MODEL.rotation_plan_seconds(
            6, 8, 4096, 3
        ) > DEFAULT_COST_MODEL.rotation_plan_seconds(6, 2, 4096, 3)

    def test_program_seconds_orders_by_work(self):
        shallow = self._poly(1)
        deep = self._poly(3)
        assert DEFAULT_COST_MODEL.program_seconds(
            deep.program, 4096, 3
        ) > DEFAULT_COST_MODEL.program_seconds(shallow.program, 4096, 3)

    @staticmethod
    def _poly(depth):
        program = EvaProgram(f"poly{depth}", vec_size=16, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            acc = x
            for _ in range(depth):
                acc = acc * x
            output("y", acc, 25)
        return compile_program(program.graph)
