"""Tests for lane-aware rotation lowering (LaneLoweringPass and its plumbing).

The invariant under test everywhere: a program compiled with
``lane_width=w`` computes, in every lane, exactly what the base compilation
computes on that lane's request replicated across the whole vector — so a
batched lane matches a solo run of the same request up to CKKS noise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.harris import build_harris_program, reference_harris
from repro.apps.sobel import build_sobel_program, random_image, reference_sobel
from repro.backend import CkksBackend, MockBackend
from repro.core import CompilerOptions, Executor, compile_program, execute_reference
from repro.core.analysis.rotations import lane_lowered_step_pair, normalize_step
from repro.core.types import Op
from repro.errors import CompilationError
from repro.frontend import EvaProgram, input_encrypted, output
from repro.serving import SlotBatcher


def rotation_program(vec_size=64, step=3, name="rot"):
    program = EvaProgram(name, vec_size=vec_size, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", (x << step) * x + (x >> 1) * 0.5, 25)
    return program


def batch_and_compare(program, lane_width, requests, backend=None, atol=1e-9):
    """Compile base + lane variant, batch the requests, compare per lane."""
    backend = backend or MockBackend(error_model="none")
    base = compile_program(program.graph)
    lowered = compile_program(
        program.graph, options=CompilerOptions(lane_width=lane_width)
    )
    batcher = SlotBatcher()
    plan = batcher.plan(lowered, requests)
    assert plan is not None and plan.lane_width == lane_width
    packed = batcher.pack(plan, requests)
    result = Executor(lowered, backend).execute(packed)
    per_lane = batcher.unpack(plan, result.outputs)
    for request, outputs in zip(requests, per_lane):
        solo = Executor(base, backend).execute(request)
        for name in outputs:
            np.testing.assert_allclose(
                outputs[name], solo[name][: len(outputs[name])], atol=atol
            )
    return per_lane


class TestLaneIdentity:
    """The mask-and-combine identity, checked numerically (no compiler)."""

    @pytest.mark.parametrize("seed", range(20))
    def test_masked_rotation_equals_lane_roll(self, seed):
        rng = np.random.default_rng(seed)
        log_v = int(rng.integers(2, 8))
        vec_size = 1 << log_v
        lane_width = 1 << int(rng.integers(1, log_v + 1))
        step = int(rng.integers(-3 * vec_size, 3 * vec_size))
        values = rng.uniform(-1, 1, vec_size)

        # Ground truth: rotate each lane independently.
        lanes = values.reshape(-1, lane_width)
        expected = np.roll(lanes, -step, axis=1).reshape(-1)

        k = normalize_step(Op.ROTATE_LEFT, step, vec_size) % lane_width
        if k == 0:
            np.testing.assert_allclose(values, expected)
            return
        step_in, step_wrap = lane_lowered_step_pair(k, lane_width, vec_size)
        mask_in = np.tile(
            (np.arange(lane_width) < lane_width - k).astype(float),
            vec_size // lane_width,
        )
        combined = mask_in * np.roll(values, -step_in) + (1.0 - mask_in) * np.roll(
            values, -step_wrap
        )
        np.testing.assert_allclose(combined, expected)

    @pytest.mark.parametrize("seed", range(20))
    def test_step_pair_agrees_with_normalize_step(self, seed):
        """The pair is already normalized: normalize_step is a fixed point."""
        rng = np.random.default_rng(100 + seed)
        log_v = int(rng.integers(2, 12))
        vec_size = 1 << log_v
        lane_width = 1 << int(rng.integers(1, log_v + 1))
        k = int(rng.integers(1, lane_width)) if lane_width > 1 else None
        if k is None:
            return
        step_in, step_wrap = lane_lowered_step_pair(k, lane_width, vec_size)
        for step in (step_in, step_wrap):
            assert 0 <= step < vec_size
            assert normalize_step(Op.ROTATE_LEFT, step, vec_size) == step
        # The wrap branch is the left-normalized form of the negative step.
        assert step_wrap == normalize_step(
            Op.ROTATE_LEFT, k - lane_width, vec_size
        )

    def test_step_pair_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            lane_lowered_step_pair(0, 8, 64)
        with pytest.raises(ValueError):
            lane_lowered_step_pair(8, 8, 64)


class TestLaneLoweredCompilation:
    def test_lowered_program_has_only_masked_rotations(self):
        compiled = compile_program(
            rotation_program(vec_size=64).graph,
            options=CompilerOptions(lane_width=8),
        )
        wrap = 64 - 8
        for term in compiled.program.terms():
            if term.op in (Op.ROTATE_LEFT, Op.ROTATE_RIGHT):
                step = normalize_step(term.op, term.rotation, 64)
                # Every surviving rotation is either an in-lane step (always
                # combined with a mask) or the shared wrap-branch rotation
                # rot(vec_size - w) — never a bare cross-lane movement by a
                # lane multiple other than the wrap step.
                assert step % 8 != 0 or step == wrap
        assert compiled.lane_width == 8
        assert compiled.lane_capacity == 8

    def test_rotation_steps_cover_the_lowered_form(self):
        compiled = compile_program(
            rotation_program(vec_size=64, step=3).graph,
            options=CompilerOptions(lane_width=8),
        )
        # x << 3 keeps the in-lane step 3; x >> 1 lowers (as left 63 -> lane
        # step 7) to the in-lane step 7.  Both wrap branches share the single
        # composed step 64 - 8 = 56 instead of the legacy pair {59, 63}.
        assert {3, 7, 56} <= set(compiled.rotation_steps)
        assert not {59, 63} & set(compiled.rotation_steps)
        # The legacy mask-pair lowering (hoisting off) still emits per-step
        # wrap rotations — it is kept as the PR 7 baseline.
        legacy = compile_program(
            rotation_program(vec_size=64, step=3).graph,
            options=CompilerOptions(
                lane_width=8, hoist_rotations=False, bsgs_rotations="off"
            ),
        )
        assert {3, 59, 7, 63} <= set(legacy.rotation_steps)

    def test_full_width_lane_is_identity(self):
        program = rotation_program(vec_size=32)
        base = compile_program(program.graph)
        full = compile_program(program.graph, options=CompilerOptions(lane_width=32))
        assert base.rotation_steps == full.rotation_steps
        assert full.lane_capacity == 1
        assert SlotBatcher().inspect(full).lane_width is None

    def test_validation_and_constraints_hold(self):
        # Scale/level validation (Constraints 1-4) runs inside compile(); a
        # lowered program that reached here has passed it.  Check the scales
        # are also *executable* on the strict mock backend.
        program = rotation_program(vec_size=64)
        compiled = compile_program(program.graph, options=CompilerOptions(lane_width=8))
        xv = np.linspace(-1, 1, 64)
        result = Executor(compiled, MockBackend(error_model="none")).execute({"x": xv})
        assert result["y"].shape == (64,)

    def test_bad_lane_widths_rejected(self):
        with pytest.raises(CompilationError):
            CompilerOptions(lane_width=3)
        with pytest.raises(CompilationError):
            CompilerOptions(lane_width=0)
        with pytest.raises(CompilationError):
            compile_program(
                rotation_program(vec_size=16).graph,
                options=CompilerOptions(lane_width=32),
            )

    def test_constant_wider_than_lane_rejected(self):
        program = EvaProgram("wideconst", vec_size=32, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("y", (x << 1) * list(range(1, 17)), 25)
        with pytest.raises(CompilationError, match="lane"):
            compile_program(program.graph, options=CompilerOptions(lane_width=8))
        # The same constant is fine once the lane holds it.
        compile_program(program.graph, options=CompilerOptions(lane_width=16))


class TestLaneBatchedExecution:
    def test_rotation_lanes_match_solo(self):
        rng = np.random.default_rng(5)
        program = rotation_program(vec_size=64)
        requests = [{"x": rng.uniform(-1, 1, 16)} for _ in range(4)]
        batch_and_compare(program, 16, requests)

    def test_sum_program_lanes_match_solo(self):
        # SUM expands to the full-width reduction; lane lowering turns it into
        # a lane-local reduction times the replication factor — exactly the
        # solo semantics of SUM on a replicated narrow input.
        program = EvaProgram("dot", vec_size=64, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            w = [0.25, -0.5, 1.0, 0.125] * 2
            output("y", (x * w).sum() * 0.01, 25)
        rng = np.random.default_rng(6)
        requests = [{"x": rng.uniform(-1, 1, 8)} for _ in range(8)]
        batch_and_compare(program, 8, requests)

    def test_narrow_requests_tile_their_lane(self):
        rng = np.random.default_rng(7)
        program = rotation_program(vec_size=64)
        # Width-4 requests in width-8 lanes: the packer tiles them, exactly
        # like the executor replicates a narrow solo input.
        requests = [{"x": rng.uniform(-1, 1, 4)} for _ in range(6)]
        batch_and_compare(program, 8, requests)

    def test_plan_rejects_requests_wider_than_lane(self):
        program = rotation_program(vec_size=64)
        lowered = compile_program(program.graph, options=CompilerOptions(lane_width=8))
        requests = [{"x": np.ones(16)}, {"x": np.ones(16)}]
        assert SlotBatcher().plan(lowered, requests) is None

    def test_lane_metadata_drives_batchability(self):
        program = rotation_program(vec_size=64)
        batcher = SlotBatcher()
        base = compile_program(program.graph)
        lowered = compile_program(program.graph, options=CompilerOptions(lane_width=8))
        assert not batcher.inspect(base).batchable
        info = batcher.inspect(lowered)
        assert info.batchable and not info.slotwise and info.lane_width == 8


class TestGoldenWorkloads:
    """Section 8's rotation-heavy kernels, batched vs solo (mock backend)."""

    IMAGE_SIZE = 8  # 64-pixel lanes keep the mock runs fast

    def _images(self, count):
        return [random_image(self.IMAGE_SIZE, seed=seed) for seed in range(count)]

    def test_sobel_batched_lanes_match_solo(self):
        lane = self.IMAGE_SIZE**2
        program = build_sobel_program(self.IMAGE_SIZE, vec_size=8 * lane)
        images = self._images(5)
        requests = [{"image": image.reshape(-1)} for image in images]
        per_lane = batch_and_compare(
            program, lane, requests, backend=MockBackend(seed=11), atol=1e-3
        )
        for image, outputs in zip(images, per_lane):
            expected = reference_sobel(image).reshape(-1)
            np.testing.assert_allclose(outputs["edges"], expected, atol=1e-2)

    def test_harris_batched_lanes_match_solo(self):
        lane = self.IMAGE_SIZE**2
        program = build_harris_program(self.IMAGE_SIZE, vec_size=4 * lane)
        images = self._images(3)
        requests = [{"image": image.reshape(-1)} for image in images]
        per_lane = batch_and_compare(
            program, lane, requests, backend=MockBackend(seed=13), atol=1e-3
        )
        for image, outputs in zip(images, per_lane):
            expected = reference_harris(image).reshape(-1)
            np.testing.assert_allclose(outputs["response"], expected, atol=1e-2)

    def test_apps_reject_too_small_vec_size(self):
        with pytest.raises(ValueError):
            build_sobel_program(8, vec_size=32)
        with pytest.raises(ValueError):
            build_harris_program(8, vec_size=32)


class TestRealCkksSpotCheck:
    def test_lane_batched_rotation_on_real_ckks(self):
        program = EvaProgram("ckks-lane", vec_size=32, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("y", (x << 1) * 0.5 + x, 25)
        options = CompilerOptions(max_rescale_bits=25, lane_width=8)
        lowered = compile_program(program.graph, options=options)
        assert lowered.lane_width == 8

        rng = np.random.default_rng(17)
        requests = [{"x": rng.uniform(-1, 1, 8)} for _ in range(4)]
        batcher = SlotBatcher()
        plan = batcher.plan(lowered, requests)
        assert plan is not None and plan.capacity == 4
        packed = batcher.pack(plan, requests)
        result = Executor(lowered, CkksBackend(seed=21)).execute(packed)
        per_lane = batcher.unpack(plan, result.outputs)
        for request, outputs in zip(requests, per_lane):
            reference = execute_reference(program.graph, request)
            assert np.max(np.abs(outputs["y"] - reference["y"][:8])) < 0.05


class TestEncryptedLaneAlignment:
    """Client-side packing aligned with the server's registered lane width."""

    def test_encrypt_packed_roundtrip_through_server(self):
        from repro.api import ClientKit, CompiledProgram
        from repro.serving import EvaServer

        program = rotation_program(vec_size=64, name="rot-enc")
        options = CompilerOptions(lane_width=16)
        backend = MockBackend(error_model="none")
        with EvaServer(backend=backend, workers=1, batch_window=0.0) as server:
            spec = server.register("rot-enc", program, lane_width=16)
            # The client compiles with the same options; signatures align.
            compiled = CompiledProgram.compile(program, options=options)
            assert compiled.signature == spec.signature
            client = ClientKit(compiled, backend=backend, client_id="alice")
            assert client.lane_width == 16
            session = server.create_session(
                "rot-enc", "alice", client.evaluation_context()
            )
            assert session["lane_width"] == 16

            rng = np.random.default_rng(29)
            requests = [{"x": rng.uniform(-1, 1, 16)} for _ in range(4)]
            bundle, plan = client.encrypt_packed(requests)
            response = server.request_encrypted("rot-enc", bundle)
            results = client.decrypt_packed(plan, response.outputs)
        base = compile_program(program.graph)
        for request, outputs in zip(requests, results):
            solo = Executor(base, MockBackend(error_model="none")).execute(request)
            np.testing.assert_allclose(outputs["y"], solo["y"][:16], atol=1e-9)

    def test_unaligned_client_bundle_rejected(self):
        from repro.api import ClientKit, CompiledProgram
        from repro.errors import ServingError
        from repro.serving import EvaServer

        program = rotation_program(vec_size=64, name="rot-mis")
        backend = MockBackend(error_model="none")
        with EvaServer(backend=backend, workers=1, batch_window=0.0) as server:
            server.register("rot-mis", program, lane_width=16)
            # Client compiled *without* the lane width: different signature.
            compiled = CompiledProgram.compile(program)
            client = ClientKit(compiled, backend=backend, client_id="bob")
            server.create_session("rot-mis", "bob", client.evaluation_context())
            bundle = client.encrypt_inputs({"x": np.linspace(-1, 1, 64)})
            with pytest.raises(ServingError, match="different compilation"):
                server.request_encrypted("rot-mis", bundle)
