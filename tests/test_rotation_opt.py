"""Tests for the rotation-cost layer: hoisting, BSGS planning, key dedup.

Three optimizations share one correctness obligation — the optimized program
must compute exactly what the direct compilation computes:

* rotation hoisting rewrites ``sum_j c_j * rot_s(y_j)`` into
  ``rot_s(sum_j roll(c_j, s) * y_j)``, one rotation per distinct step;
* BSGS decomposes ``rot(s)`` into ``rot_baby(s % B)(rot_giant(B * (s // B)))``
  so k distinct steps need O(sqrt(k)) Galois keys;
* keygen dedup unions the step sets of several compiled variants so a step
  shared between the solo and lane-lowered forms yields exactly one key.

The property tests here drive random step sets, widths, and coefficients
through the full compiler and compare against the un-optimized compilation
on the exact mock backend; a real-CKKS spot check ties the whole chain to
actual key-switching.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.sobel import build_sobel_program
from repro.backend import CkksBackend, MockBackend
from repro.backend.cost_model import DEFAULT_COST_MODEL
from repro.core import CompilerOptions, Executor, compile_program
from repro.core.analysis.rotations import (
    lane_rotation_profile,
    merge_rotation_steps,
    plan_rotation_steps,
)
from repro.core.types import Op
from repro.errors import CompilationError, ExecutionError
from repro.frontend import EvaProgram, input_encrypted, output

EXACT = dict(error_model="none")

LEGACY = dict(hoist_rotations=False, bsgs_rotations="off")


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


class TestHoistedEquivalence:
    """Optimized compilation == direct compilation, numerically (mock)."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_rotation_sums_match_direct(self, seed):
        rng = np.random.default_rng(seed)
        vec_size = 1 << int(rng.integers(4, 8))
        program = random_rotation_sum(rng, vec_size, int(rng.integers(2, 7)))
        optimized = compile_program(program.graph)
        direct = compile_program(
            program.graph, options=CompilerOptions(**LEGACY)
        )
        values = {"x": rng.uniform(-1, 1, vec_size)}
        backend = MockBackend(**EXACT)
        got = Executor(optimized, backend).execute(values)
        want = Executor(direct, backend).execute(values)
        np.testing.assert_allclose(got["y"], want["y"], atol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_lane_lowered_sums_match_direct(self, seed):
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
        legacy = compile_program(
            program.graph, options=CompilerOptions(lane_width=lane, **LEGACY)
        )
        values = {"x": rng.uniform(-1, 1, vec_size)}
        backend = MockBackend(**EXACT)
        got = Executor(optimized, backend).execute(values)
        want = Executor(legacy, backend).execute(values)
        np.testing.assert_allclose(got["y"], want["y"], atol=1e-9)
        # The hoisted wrap form needs at most one key per in-lane step plus
        # the shared wrap step; the legacy mask-pair form pays two per step.
        assert len(optimized.rotation_steps) <= len(legacy.rotation_steps)

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
        direct = compile_program(program.graph, options=CompilerOptions(**LEGACY))
        assert rotation_count(optimized) <= rotation_count(direct)
        values = {"x": np.linspace(-1, 1, 64)}
        backend = MockBackend(**EXACT)
        np.testing.assert_allclose(
            Executor(optimized, backend).execute(values)["y"],
            Executor(direct, backend).execute(values)["y"],
            atol=1e-9,
        )


class TestBsgsPlanner:
    def test_dense_step_set_needs_sqrt_keys(self):
        steps = list(range(1, 64))  # 63 distinct steps
        plan = plan_rotation_steps(steps, 128, mode="always")
        assert plan.decomposed
        # B babies + 63//B giants: minimized around sqrt(63) ~ 8.
        assert len(plan.key_steps) <= 16
        for step, (giant, baby) in plan.decompositions.items():
            assert giant + baby == step
            assert giant in plan.key_steps and baby in plan.key_steps

    def test_pure_power_of_two_set_stays_direct(self):
        # {1,2,4,...}: every step is a pure baby or giant of any base, so
        # no decomposition can beat the direct key set.
        steps = [1, 2, 4, 8, 16, 32]
        plan = plan_rotation_steps(steps, 128, mode="auto")
        assert not plan.decomposed
        assert list(plan.key_steps) == steps

    def test_off_mode_is_identity(self):
        plan = plan_rotation_steps([3, 5, 7, 11], 64, mode="off")
        assert not plan.decomposed
        assert list(plan.key_steps) == [3, 5, 7, 11]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="BSGS mode"):
            plan_rotation_steps([1, 3], 64, mode="sometimes")
        with pytest.raises(CompilationError, match="bsgs_rotations"):
            CompilerOptions(bsgs_rotations="sometimes")

    def test_auto_mode_charges_extra_rotations(self):
        # A set whose giants all exist as direct steps pays zero extra
        # rotations; the planner must know that when weighing candidates.
        steps = [8, 9, 10, 16, 17, 18]
        plan = plan_rotation_steps(steps, 64, mode="always")
        if plan.decomposed:
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
        for mode in ("off", "always", "auto"):
            plan = plan_rotation_steps(steps, vec_size, mode=mode)
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
        direct = compile_program(program.graph, options=CompilerOptions(**LEGACY))
        assert len(optimized.rotation_steps) < len(direct.rotation_steps)


class TestLaneRotationProfile:
    def test_profile_folds_steps_into_the_lane(self):
        # Steps 3 and 11 coincide mod 8; the wrap step joins when any
        # in-lane step survives.
        assert lane_rotation_profile([3, 11], 8, 64) == [3, 56]

    def test_lane_multiples_vanish(self):
        assert lane_rotation_profile([8, 16], 8, 64) == []


class TestKeyDedup:
    def _variants(self, vec_size=64):
        # Two lane widths of the same program: same masked depth, hence the
        # same encryption parameters, but overlapping-not-equal step sets —
        # exactly the shape a server serving several batch widths produces.
        program = EvaProgram("dedup", vec_size=vec_size, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("y", (x << 3) * 0.5 + (x << 5) * 0.25 + x, 25)
        narrow = compile_program(
            program.graph, options=CompilerOptions(lane_width=8)
        )
        wide = compile_program(
            program.graph, options=CompilerOptions(lane_width=16)
        )
        return narrow, wide

    def test_merge_is_a_set_union(self):
        assert merge_rotation_steps([3, 5], [5, 7], [0, 3]) == [3, 5, 7]

    def test_kit_keygen_covers_the_union_once(self):
        from repro.api import ClientKit

        narrow, wide = self._variants()
        union = merge_rotation_steps(narrow.rotation_steps, wide.rotation_steps)
        kit = ClientKit.for_programs(
            [narrow, wide], backend=MockBackend(**EXACT)
        )
        # The kit holds exactly the union — |A ∪ B| keys, not |A| + |B|.
        assert kit.rotation_steps == union
        assert len(kit.rotation_steps) < len(narrow.rotation_steps) + len(
            wide.rotation_steps
        )

    def test_exported_key_set_size_is_the_union_on_real_ckks(self):
        from repro.api import ClientKit

        program = EvaProgram("dedup-ckks", vec_size=32, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("y", (x << 1) * 0.5 + (x << 3) * 0.25 + x, 25)
        narrow = compile_program(
            program.graph,
            options=CompilerOptions(max_rescale_bits=25, lane_width=4),
        )
        wide = compile_program(
            program.graph,
            options=CompilerOptions(max_rescale_bits=25, lane_width=8),
        )
        union = merge_rotation_steps(narrow.rotation_steps, wide.rotation_steps)
        kit = ClientKit.for_programs([narrow, wide], backend=CkksBackend(seed=3))
        blob = kit.export_evaluation_keys()
        # One Galois key per step in the union: the exported key-set size is
        # the regression guard for keygen dedup.
        assert len(blob["galois_keys"]) == len(union)

    def test_mismatched_parameters_rejected(self):
        from repro.api import ClientKit

        narrow, _ = self._variants()
        program = EvaProgram("deep", vec_size=64, default_scale=30)
        with program:
            x = input_encrypted("x", 30)
            output("y", ((x * x) * x) * x, 30)
        deep = compile_program(program.graph)
        assert (
            deep.parameters.coeff_modulus_bits
            != narrow.parameters.coeff_modulus_bits
        )
        with pytest.raises(ExecutionError, match="different"):
            ClientKit.for_programs([narrow, deep], backend=MockBackend(**EXACT))


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


class TestWidthPicker:
    def _lane_program(self):
        program = EvaProgram("picker", vec_size=64, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("y", (x << 1) * 0.5 + x, 25)
        return compile_program(program.graph)

    def test_cost_model_ranking_prefers_capacity(self):
        from repro.serving.artifacts import LaneWidthPolicy

        policy = LaneWidthPolicy(top_widths=3)
        compilation = self._lane_program()
        # All requests are width 4: a width-4 lane packs 16 per ciphertext,
        # wider lanes waste slots — the model must prefer the snug width.
        ranked = policy.choose_widths(compilation, {4: 40, 16: 2})
        assert ranked and ranked[0][0] == 4
        assert all(score > 0 for _width, score in ranked)

    def test_invalid_widths_filtered(self):
        from repro.serving.artifacts import LaneWidthPolicy

        policy = LaneWidthPolicy()
        compilation = self._lane_program()
        # 64 is the full vector, 3 does not divide it, 0 is degenerate.
        assert policy.choose_widths(compilation, {64: 5, 3: 5, 0: 5}) == []


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

            # A session registration accrues the modeled key upload bytes.
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
            expected = len(
                compiled.parameters.rotation_steps
            ) * DEFAULT_COST_MODEL.galois_key_bytes(
                compiled.parameters.poly_modulus_degree,
                max(len(compiled.parameters.coeff_modulus_bits), 1),
            )
            assert key_bytes == expected

            exposition = render_prometheus(server.metrics_snapshot())
            assert 'serving_rotations_total{' in exposition
            assert 'serving_keyswitch_total{' in exposition
            assert 'serving_galois_keys_bytes_total{' in exposition


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
