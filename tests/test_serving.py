"""Tests for the serving subsystem: registry, sessions, batching, engine, wire."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
import pytest

from repro.api import ClientKit, CompiledProgram, EncryptedOutputs
from repro.backend import CkksBackend, MockBackend
from repro.core import CompilerOptions, Executor, compile_program, execute_reference, program_signature
from repro.core.serialization import messages
from repro.wire import FRAME_RESPONSE, JSON
from repro.errors import (
    EncodingError,
    ExecutionError,
    QueueFullError,
    SerializationError,
    ServingError,
    UnknownProgramError,
)
from repro.frontend import EvaProgram, input_encrypted, output
from repro.serving import (
    EvaServer,
    EvaTcpServer,
    JobEngine,
    ProgramRegistry,
    ServingClient,
    SessionManager,
    SlotBatcher,
    is_slotwise,
)


def make_poly_program(name="poly", vec_size=64, coeff=1.0):
    program = EvaProgram(name, vec_size=vec_size, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", x * x + x * coeff + 1.0, 25)
    return program


def make_rotation_program(vec_size=16):
    program = EvaProgram("rot", vec_size=vec_size, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", (x << 1) * x, 25)
    return program


class TestProgramSignature:
    def test_stable_across_clones(self):
        program = make_poly_program().graph
        assert program_signature(program) == program_signature(program.clone())

    def test_name_does_not_matter(self):
        a = make_poly_program(name="a").graph
        b = make_poly_program(name="b").graph
        assert program_signature(a) == program_signature(b)

    def test_graph_changes_matter(self):
        a = make_poly_program(coeff=1.0).graph
        b = make_poly_program(coeff=2.0).graph
        assert program_signature(a) != program_signature(b)

    def test_options_matter(self):
        program = make_poly_program().graph
        assert program_signature(program, CompilerOptions(policy="eva")) != program_signature(
            program, CompilerOptions(policy="chet")
        )


class TestProgramRegistry:
    def test_hit_miss_accounting(self):
        registry = ProgramRegistry(capacity=4)
        program = make_poly_program().graph
        first = registry.get_or_compile(program)
        second = registry.get_or_compile(program)
        assert first is second
        summary = registry.summary()
        assert (summary["misses"], summary["hits"], summary["hit_rate"]) == (1, 1, 0.5)

    def test_clone_hits_same_entry(self):
        registry = ProgramRegistry(capacity=4)
        program = make_poly_program().graph
        first = registry.get_or_compile(program)
        second = registry.get_or_compile(program.clone())
        assert first is second

    def test_lru_eviction(self):
        registry = ProgramRegistry(capacity=2)
        programs = [make_poly_program(coeff=float(i)).graph for i in range(3)]
        compiled = [registry.get_or_compile(p) for p in programs]
        assert len(registry) == 2
        assert registry.summary()["evictions"] == 1
        # The oldest entry (coeff=0) was evicted: recompiling misses...
        assert registry.get_or_compile(programs[0]) is not compiled[0]
        # ...while the most recent entry is still cached.
        assert registry.get_or_compile(programs[2]) is compiled[2]

    def test_lru_order_refreshed_by_hits(self):
        registry = ProgramRegistry(capacity=2)
        a, b, c = [make_poly_program(coeff=float(i)).graph for i in range(3)]
        ca = registry.get_or_compile(a)
        registry.get_or_compile(b)
        registry.get_or_compile(a)  # refresh a; b is now least recent
        registry.get_or_compile(c)  # evicts b
        assert registry.get_or_compile(a) is ca
        assert registry.summary()["evictions"] == 1


    @pytest.mark.parametrize("variant", [False, True], ids=["base", "lane-variant"])
    def test_workers_that_miss_together_compile_once(self, held_compiler, variant):
        """Four workers miss one signature at once: one compiles while the
        other three wait on its claim, and all four get the same object."""
        registry = ProgramRegistry()
        graph = make_poly_program().graph
        if variant:
            lookup = lambda: registry.get_or_compile_variant(graph, lane_width=8, base_signature="base")
        else:
            lookup = lambda: registry.get_or_compile(graph)
        outcomes = miss_together(registry, held_compiler, lookup, 4)
        assert outcomes == [held_compiler.result] * 4
        assert held_compiler.calls == 1
        assert (registry.summary()["misses"], registry.summary()["hits"]) == (1, 3)

    def test_a_failed_compile_raises_in_every_waiter_and_frees_the_claim(self, held_compiler):
        registry = ProgramRegistry()
        graph = make_poly_program().graph
        held_compiler.error = ValueError("no parameters fit")
        outcomes = miss_together(registry, held_compiler, lambda: registry.get_or_compile(graph), 3)
        assert outcomes == [held_compiler.error] * 3
        held_compiler.error = None
        outcomes = miss_together(registry, held_compiler, lambda: registry.get_or_compile(graph), 1)
        assert outcomes == [held_compiler.result]
        assert held_compiler.calls == 2, "the next request compiles again"


@pytest.fixture
def held_compiler(monkeypatch):
    """``EvaCompiler`` replaced by a stub whose every compile waits at
    ``gate`` (a two-party barrier the test passes) and then returns
    ``result`` or raises ``error``."""
    import repro.serving.registry as registry_module

    class HeldCompiler:
        calls = 0
        error: Optional[Exception] = None
        result = object()
        gate = threading.Barrier(2)

        def __init__(self, options=None):
            pass

        def compile(self, *_args):
            HeldCompiler.calls += 1
            HeldCompiler.gate.wait(10)
            if HeldCompiler.error is not None:
                raise HeldCompiler.error
            return HeldCompiler.result

    monkeypatch.setattr(registry_module, "EvaCompiler", HeldCompiler)
    return HeldCompiler


def miss_together(registry, compiler, lookup, count):
    """Run ``lookup`` on ``count`` threads at once; the held compile is let
    go only after every one of them has been counted a hit or a miss.
    Returns each thread's result or exception."""
    outcomes = [None] * count

    def call(index):
        try:
            outcomes[index] = lookup()
        except Exception as exc:
            outcomes[index] = exc

    looked_up = registry.summary()["hits"] + registry.summary()["misses"]
    threads = [threading.Thread(target=call, args=(index,)) for index in range(count)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 10
    while registry.summary()["hits"] + registry.summary()["misses"] < looked_up + count:
        assert time.monotonic() < deadline, "the lookups never happened"
        time.sleep(0.005)
    compiler.gate.wait(10)
    for thread in threads:
        thread.join(10)
    return outcomes


class TestSessionManager:
    def test_context_reused_per_client(self):
        compilation = compile_program(make_poly_program().graph)
        sessions = SessionManager(MockBackend(seed=0), capacity=4)
        first = sessions.get(compilation, client_id="alice")
        second = sessions.get(compilation, client_id="alice")
        assert first is second
        assert sessions.summary()["hits"] == 1
        assert sessions.summary()["misses"] == 1

    def test_clients_never_share_contexts(self):
        compilation = compile_program(make_poly_program().graph)
        sessions = SessionManager(MockBackend(seed=0), capacity=4)
        assert sessions.get(compilation, "alice") is not sessions.get(compilation, "bob")

    def test_lru_eviction_and_keys_generated(self):
        compilation = compile_program(make_poly_program().graph)
        sessions = SessionManager(MockBackend(seed=0), capacity=2)
        contexts = [sessions.get(compilation, f"client{i}") for i in range(3)]
        assert all(ctx.keys_generated for ctx in contexts)
        assert len(sessions) == 2
        assert sessions.summary()["evictions"] == 1
        # client0 was evicted; a repeat request rebuilds its session.
        assert sessions.get(compilation, "client0") is not contexts[0]


class TestExecutorContextReuse:
    def test_context_param_skips_keygen(self, noiseless_backend):
        program = make_poly_program(vec_size=16)
        compilation = compile_program(program.graph)
        executor = Executor(compilation, noiseless_backend)
        context = executor.create_context()
        xv = np.linspace(-1, 1, 16)
        warm = executor.execute({"x": xv}, context=context)
        cold = executor.execute({"x": xv})
        assert warm.stats.context_seconds == 0.0
        assert cold.stats.context_seconds > 0.0
        np.testing.assert_allclose(warm["y"], cold["y"], rtol=1e-9)

    def test_repeated_reuse_matches_reference(self, noiseless_backend):
        program = make_poly_program(vec_size=16)
        compilation = compile_program(program.graph)
        executor = Executor(compilation, noiseless_backend)
        context = executor.create_context()
        for seed in range(3):
            xv = np.random.default_rng(seed).uniform(-1, 1, 16)
            result = executor.execute({"x": xv}, context=context)
            reference = execute_reference(program.graph, {"x": xv})
            np.testing.assert_allclose(result["y"], reference["y"], rtol=1e-9)


class TestSlotBatcher:
    def test_slotwise_detection(self):
        assert is_slotwise(make_poly_program().graph)
        assert not is_slotwise(make_rotation_program().graph)

    def test_rotation_program_not_batchable(self):
        compilation = compile_program(make_rotation_program().graph)
        assert not SlotBatcher().batchable(compilation)

    def test_pack_execute_unpack_matches_reference(self, noiseless_backend):
        program = make_poly_program(vec_size=64)
        compilation = compile_program(program.graph)
        batcher = SlotBatcher()
        rng = np.random.default_rng(3)
        requests = [{"x": rng.uniform(-1, 1, 8)} for _ in range(5)]
        plan = batcher.plan(compilation, requests)
        assert plan is not None
        assert plan.lane_width == 8
        assert plan.capacity == 8
        packed = batcher.pack(plan, requests)
        result = Executor(compilation, noiseless_backend).execute(packed)
        per_request = batcher.unpack(plan, result.outputs)
        for request, outputs in zip(requests, per_request):
            reference = execute_reference(program.graph, request)
            np.testing.assert_allclose(outputs["y"], reference["y"][:8], rtol=1e-9)

    def test_single_request_not_planned(self):
        compilation = compile_program(make_poly_program().graph)
        assert SlotBatcher().plan(compilation, [{"x": np.ones(4)}]) is None

    def test_overflowing_batch_not_planned(self):
        compilation = compile_program(make_poly_program(vec_size=8).graph)
        requests = [{"x": np.ones(4)} for _ in range(3)]  # capacity is 2
        assert SlotBatcher().plan(compilation, requests) is None

    def test_mixed_widths_use_widest_lane(self):
        compilation = compile_program(make_poly_program(vec_size=64).graph)
        requests = [{"x": np.ones(4)}, {"x": np.ones(16)}]
        plan = SlotBatcher().plan(compilation, requests)
        assert plan is not None
        assert plan.lane_width == 16

    def test_non_dividing_request_not_planned(self):
        # A size-3 vector cannot tile a power-of-two lane; planning must bail
        # out so the bad request fails alone on the solo path instead of
        # blowing up pack() for the whole batch.
        compilation = compile_program(make_poly_program(vec_size=64).graph)
        requests = [{"x": np.ones(16)}, {"x": np.ones(3)}]
        assert SlotBatcher().plan(compilation, requests) is None

    def test_invalid_output_width_not_planned(self):
        compilation = compile_program(make_poly_program(vec_size=64).graph)
        requests = [{"x": np.ones(8)}, {"x": np.ones(8)}]
        assert SlotBatcher().plan(compilation, requests, ["oops", None]) is None
        assert SlotBatcher().plan(compilation, requests, [-4, None]) is None

    def test_cached_info_matches_fresh_scan(self):
        batcher = SlotBatcher()
        slotwise = compile_program(make_poly_program(vec_size=64).graph)
        crossing = compile_program(make_rotation_program().graph)
        assert batcher.inspect(slotwise).batchable
        assert not batcher.inspect(crossing).batchable
        requests = [{"x": np.ones(8)}, {"x": np.ones(8)}]
        with_info = batcher.plan(slotwise, requests, info=batcher.inspect(slotwise))
        without = batcher.plan(slotwise, requests)
        assert with_info == without


class TestJobEngine:
    def test_futures_resolve(self):
        with JobEngine(lambda jobs: [job.payload * 2 for job in jobs], workers=2) as engine:
            futures = [engine.submit("g", i) for i in range(10)]
            assert [f.result(10) for f in futures] == [i * 2 for i in range(10)]
        assert engine.metrics_snapshot()["completed"] == 10

    def test_handler_exception_fails_batch(self):
        def boom(jobs):
            raise RuntimeError("kaput")

        with JobEngine(boom, workers=1) as engine:
            future = engine.submit("g", None)
            with pytest.raises(RuntimeError, match="kaput"):
                future.result(10)
        assert engine.metrics_snapshot()["failed"] == 1

    def test_bounded_queue_rejects_on_timeout(self):
        release = threading.Event()

        def slow(jobs):
            release.wait(10)
            return [None] * len(jobs)

        engine = JobEngine(slow, workers=1, queue_size=1, max_batch=1)
        try:
            engine.submit("g", 0)  # picked up by the worker, then blocks
            time.sleep(0.05)
            engine.submit("g", 1)  # fills the queue
            with pytest.raises(QueueFullError):
                engine.submit("g", 2, timeout=0.01)
            assert engine.metrics_snapshot()["rejected"] == 1
        finally:
            release.set()
            engine.close()

    def test_groups_are_batched_together(self):
        release = threading.Event()
        batches = []

        def handler(jobs):
            if jobs[0].payload == "block":
                release.wait(10)
            else:
                batches.append([job.payload for job in jobs])
            return [None] * len(jobs)

        engine = JobEngine(handler, workers=1, queue_size=32, max_batch=8)
        try:
            blocker = engine.submit("warmup", "block")
            time.sleep(0.05)  # worker is now busy; the queue accumulates
            futures = [engine.submit("a", f"a{i}") for i in range(3)]
            futures += [engine.submit("b", "b0")]
            futures += [engine.submit("a", "a3")]
            release.set()
            for future in futures + [blocker]:
                future.result(10)
        finally:
            engine.close()
        assert ["a0", "a1", "a2", "a3"] in batches
        assert ["b0"] in batches
        assert engine.metrics_snapshot()["largest_batch"] == 4

    def test_submit_after_close_raises(self):
        engine = JobEngine(lambda jobs: [None] * len(jobs), workers=1)
        engine.close()
        with pytest.raises(ServingError):
            engine.submit("g", 0)

    def test_shutdown_drains_queued_jobs_by_default(self):
        """close()/shutdown() without cancel runs every queued job to a result."""
        entered = threading.Event()
        release = threading.Event()

        def gated(jobs):
            entered.set()
            release.wait(10)
            return [job.payload for job in jobs]

        engine = JobEngine(gated, workers=1, max_batch=1)
        first = engine.submit("g", "first")
        assert entered.wait(10)
        queued = [engine.submit("g", f"q{i}") for i in range(3)]
        release.set()
        engine.shutdown(wait=True)
        assert first.result(0) == "first"
        assert [future.result(0) for future in queued] == ["q0", "q1", "q2"]

    def test_shutdown_cancel_pending_resolves_every_future(self):
        """A stop during a busy batch must never leave a future unresolved.

        Regression test: in-flight work completes, queued-but-unstarted jobs
        are cancelled — nothing stays pending forever.
        """
        import concurrent.futures

        entered = threading.Event()
        release = threading.Event()

        def gated(jobs):
            entered.set()
            release.wait(10)
            return [job.payload for job in jobs]

        engine = JobEngine(gated, workers=1, max_batch=1)
        in_flight = engine.submit("g", "busy")
        assert entered.wait(10)
        pending = [engine.submit("g", i) for i in range(4)]

        stopper = threading.Thread(
            target=lambda: engine.shutdown(wait=True, cancel_pending=True)
        )
        stopper.start()
        release.set()
        stopper.join(10)
        assert not stopper.is_alive()

        assert in_flight.result(0) == "busy"
        for future in pending:
            assert future.done()
            assert future.cancelled()
            with pytest.raises(concurrent.futures.CancelledError):
                future.result(0)
        assert engine.metrics_snapshot()["cancelled"] == 4
        assert engine.metrics_snapshot()["completed"] == 1

    def test_caller_cancelled_future_does_not_kill_worker(self):
        """A future cancelled while queued must not crash the worker thread.

        Regression test: the worker used to call ``set_result`` on whatever it
        processed; a caller-side ``cancel()`` made that raise
        ``InvalidStateError``, killing the worker and stranding every job
        behind it.
        """
        entered = threading.Event()
        release = threading.Event()

        def gated(jobs):
            if jobs[0].payload == "block":
                entered.set()
                release.wait(10)
            return [job.payload for job in jobs]

        engine = JobEngine(gated, workers=1, max_batch=1)
        try:
            blocker = engine.submit("warmup", "block")
            assert entered.wait(10)
            doomed = engine.submit("g", "doomed")
            assert doomed.cancel()
            release.set()
            assert blocker.result(10) == "block"
            # The worker survived the cancelled job and still serves:
            assert engine.submit("g", "after").result(10) == "after"
            assert engine.metrics_snapshot()["cancelled"] == 1
        finally:
            engine.close()


class TestEvaServer:
    def test_unknown_program_rejected_at_submit(self):
        with EvaServer(backend=MockBackend(seed=0), workers=1) as server:
            with pytest.raises(UnknownProgramError):
                server.submit("nope", {"x": [1.0]})

    def test_bad_output_size_rejected_at_submit(self):
        with EvaServer(backend=MockBackend(seed=0), workers=1) as server:
            server.register("poly", make_poly_program())
            with pytest.raises(ServingError):
                server.submit("poly", {"x": [1.0]}, output_size="oops")
            with pytest.raises(ServingError):
                server.submit("poly", {"x": [1.0]}, output_size=-4)

    def test_malformed_request_fails_alone_in_batch(self):
        # One non-dividing request forces the batch onto the solo path; the
        # good requests still succeed and only the bad one errors.
        program = make_poly_program(vec_size=64)
        with EvaServer(
            backend=MockBackend(error_model="none"),
            workers=1,
            max_batch=8,
            batch_window=0.05,
        ) as server:
            server.register("poly", program)
            good = [server.submit("poly", {"x": [0.5] * 8}) for _ in range(2)]
            bad = server.submit("poly", {"x": [1.0, 2.0, 3.0]})
            for future in good:
                response = future.result(30)
                reference = execute_reference(program.graph, {"x": [0.5] * 8})
                np.testing.assert_allclose(response["y"], reference["y"][:8], rtol=1e-9)
            with pytest.raises(Exception):
                bad.result(30)

    def test_concurrent_clients_against_one_server(self):
        program = make_poly_program(vec_size=64)
        server = EvaServer(
            backend=MockBackend(error_model="none"),
            workers=4,
            max_batch=4,
            batch_window=0.01,
        )
        server.register("poly", program)
        errors = []

        def client(client_id: str, seed: int) -> None:
            try:
                rng = np.random.default_rng(seed)
                for _ in range(5):
                    xv = rng.uniform(-1, 1, 8)
                    response = server.request("poly", {"x": xv}, client_id=client_id)
                    reference = execute_reference(program.graph, {"x": xv})
                    np.testing.assert_allclose(response["y"], reference["y"][:8], atol=1e-3)
                    assert response.client_id == client_id
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append((client_id, exc))

        threads = [
            threading.Thread(target=client, args=(f"client{i}", i)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        server.close()
        assert not errors, errors
        stats = server.stats()
        assert stats["engine"]["completed"] == 30
        # One compilation for 30 requests; every request after the first hit.
        assert stats["registry"]["misses"] == 1
        assert stats["registry"]["hits"] == stats["engine"]["batches"] - 1
        # One session per client, reused across each client's requests.
        assert stats["sessions"]["sessions"] == 6
        assert stats["sessions"]["misses"] == 6

    def test_warm_requests_hit_all_caches(self):
        program = make_poly_program(vec_size=32)
        with EvaServer(backend=MockBackend(seed=0), workers=1) as server:
            server.register("poly", program)
            cold = server.request("poly", {"x": [0.5] * 8})
            warm = server.request("poly", {"x": [0.25] * 8})
        assert not cold.cached_program and not cold.cached_session
        assert warm.cached_program and warm.cached_session

    def test_rotation_program_served_unbatched(self):
        program = make_rotation_program(vec_size=16)
        with EvaServer(
            backend=MockBackend(error_model="none"), workers=1, batch_window=0.05
        ) as server:
            server.register("rot", program)
            xv = np.arange(16, dtype=float) / 16.0
            futures = [server.submit("rot", {"x": xv}) for _ in range(3)]
            responses = [future.result(30) for future in futures]
        reference = execute_reference(program.graph, {"x": xv})
        for response in responses:
            assert response.batch_size == 1
            np.testing.assert_allclose(response["y"], reference["y"], rtol=1e-9)

    def test_registered_lane_width_serves_all_requests_lowered(self):
        program = make_rotation_program(vec_size=64)
        with EvaServer(
            backend=MockBackend(error_model="none"), workers=1, batch_window=0.0
        ) as server:
            server.register("rot", program, options=CompilerOptions(lane_width=8))
            xv = np.arange(8, dtype=float) / 8.0
            response = server.request("rot", {"x": xv})
        assert response.lane_width == 8
        reference = execute_reference(program.graph, {"x": xv})
        np.testing.assert_allclose(response["y"], reference["y"][:8], rtol=1e-9)

    def test_same_signature_different_names_share_batches(self):
        """Grouping is by compilation signature: identical programs registered
        under two names land in one packed execution (same client)."""
        with EvaServer(
            backend=MockBackend(error_model="none"),
            workers=1,
            max_batch=8,
            batch_window=0.05,
        ) as server:
            server.register("a", make_poly_program(name="a", vec_size=64))
            server.register("b", make_poly_program(name="b", vec_size=64))
            rng = np.random.default_rng(3)
            request_inputs = [rng.uniform(-1, 1, 8) for _ in range(4)]
            futures = [
                server.submit("a" if i % 2 == 0 else "b", {"x": xv})
                for i, xv in enumerate(request_inputs)
            ]
            responses = [future.result(30) for future in futures]
        assert max(response.batch_size for response in responses) == 4
        # Each response still reports the name it was submitted under.
        assert [response.program for response in responses] == ["a", "b", "a", "b"]
        for xv, response in zip(request_inputs, responses):
            reference = execute_reference(make_poly_program(vec_size=64).graph, {"x": xv})
            np.testing.assert_allclose(response["y"], reference["y"][:8], rtol=1e-9)

    def test_registry_lane_variant_cached(self):
        registry = ProgramRegistry(capacity=8)
        program = make_rotation_program(vec_size=64).graph
        base = registry.get_or_compile(program)
        first = registry.get_or_compile_variant(
            program, lane_width=8, base_signature=base.signature
        )
        second = registry.get_or_compile_variant(
            program, lane_width=8, base_signature=base.signature
        )
        assert first is second
        assert first.signature != base.signature
        assert first.lane_width == 8 and base.lane_width is None

    def test_per_client_batches_are_isolated(self):
        program = make_poly_program(vec_size=64)
        with EvaServer(
            backend=MockBackend(error_model="none"),
            workers=1,
            max_batch=8,
            batch_window=0.05,
        ) as server:
            server.register("poly", program)
            futures = [
                server.submit("poly", {"x": [float(i)] * 4}, client_id=f"c{i % 2}")
                for i in range(4)
            ]
            responses = [future.result(30) for future in futures]
        for i, response in enumerate(responses):
            reference = execute_reference(program.graph, {"x": [float(i)] * 4})
            np.testing.assert_allclose(response["y"], reference["y"][:4], rtol=1e-9)
            # Groups are (program, client): batches never span clients.
            assert response.batch_size <= 2


def decode_request(line):
    """Parse and validate one JSON request line, as a connection does."""
    return messages.validate_request(JSON.peek(line))


def json_line(message):
    """One message dict as the JSON line a connection sends."""
    return JSON.encode(FRAME_RESPONSE, JSON.parts(message)).decode("utf-8")


class TestWireMessages:
    def test_request_roundtrip(self):
        line = messages.encode_request(
            "submit", program="poly", inputs={"x": [1.0, 2.0]}, client_id="alice"
        )
        decoded = decode_request(line)
        assert decoded["op"] == "submit"
        assert decoded["program"] == "poly"
        assert decoded["client_id"] == "alice"
        np.testing.assert_allclose(decoded["inputs"]["x"], [1.0, 2.0])

    def test_response_roundtrip(self):
        line = json_line(messages.build_response(outputs={"y": np.array([1.5, 2.5])}))
        decoded = messages.decode_response(line)
        assert decoded["ok"]
        np.testing.assert_allclose(decoded["outputs"]["y"], [1.5, 2.5])

    def test_error_roundtrip(self):
        line = json_line(messages.build_error(ServingError("nope")))
        decoded = messages.decode_response(line)
        assert not decoded["ok"]
        assert decoded["kind"] == "ServingError"

    def test_malformed_request_rejected(self):
        with pytest.raises(SerializationError):
            decode_request("not json")
        with pytest.raises(SerializationError):
            decode_request('{"op": "explode"}')
        with pytest.raises(SerializationError):
            decode_request('{"op": "submit"}')

    def test_bad_output_size_rejected_at_decode(self):
        for bad in ('"oops"', "-4", "0", "true", "1.5"):
            line = (
                '{"op": "submit", "program": "p", "inputs": {"x": [1.0]}, '
                f'"output_size": {bad}}}'
            )
            with pytest.raises(SerializationError):
                decode_request(line)


class TestTcpServing:
    @pytest.fixture()
    def tcp_server(self):
        program = make_poly_program(vec_size=32)
        eva = EvaServer(backend=MockBackend(seed=5), workers=2, batch_window=0.0)
        eva.register("poly", program)
        tcp = EvaTcpServer(eva, port=0)
        tcp.start_background()
        yield tcp, program
        tcp.shutdown()
        tcp.server_close()
        eva.close()

    def test_submit_over_tcp(self, tcp_server):
        tcp, program = tcp_server
        host, port = tcp.address
        xv = np.linspace(-1, 1, 8)
        with ServingClient(host, port) as client:
            assert client.ping()
            assert client.programs() == ["poly"]
            outputs = client.submit("poly", {"x": xv})
            stats = client.stats()
        reference = execute_reference(program.graph, {"x": xv})
        np.testing.assert_allclose(outputs["y"], reference["y"][:8], atol=1e-3)
        assert stats["engine"]["completed"] == 1

    def test_error_reported_not_fatal(self, tcp_server):
        tcp, _ = tcp_server
        host, port = tcp.address
        with ServingClient(host, port) as client:
            with pytest.raises(ServingError, match="UnknownProgramError"):
                client.submit("missing", {"x": [1.0]})
            # The connection survives a failed request.
            assert client.ping()

    def test_cli_serve_rejects_duplicate_stems(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core.serialization import save

        program = make_poly_program()
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        save(program.graph, tmp_path / "a" / "prog.evaproto")
        save(program.graph, tmp_path / "b" / "prog.evaproto")
        code = main(
            [
                "serve",
                str(tmp_path / "a" / "prog.evaproto"),
                str(tmp_path / "b" / "prog.evaproto"),
                "--port",
                "0",
            ]
        )
        assert code == 1
        assert "duplicate program name" in capsys.readouterr().err

    def test_cli_serve_rejects_compiled_programs(self, tmp_path, capsys):
        """An already-compiled file fails at startup, not per-request."""
        from repro.cli import main
        from repro.core import compile_program
        from repro.core.serialization import save

        program = make_poly_program()
        compiled = compile_program(program.graph)
        path = tmp_path / "compiled.evaproto"
        save(compiled.program, path)
        code = main(["serve", str(path), "--port", "0"])
        assert code == 1
        assert "already-compiled" in capsys.readouterr().err

    def test_cli_serve_end_to_end(self, tmp_path):
        """`repro.cli serve` in a subprocess answers a ServingClient request."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.core.serialization import save

        program = make_poly_program(vec_size=32)
        path = tmp_path / "poly.evaproto"
        save(program.graph, path)
        env = dict(os.environ)
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                str(path),
                "--port",
                "0",
                "--backend",
                "mock-exact",
                "--batch-window",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = json.loads(process.stdout.readline())
            assert banner["programs"] == ["poly"]
            host, port = banner["serving"].rsplit(":", 1)
            xv = np.linspace(-1, 1, 8)
            with ServingClient(host, int(port)) as client:
                outputs = client.submit("poly", {"x": xv})
            reference = execute_reference(program.graph, {"x": xv})
            np.testing.assert_allclose(outputs["y"], reference["y"][:8], rtol=1e-9)
        finally:
            process.terminate()
            process.wait(10)

    def test_cli_submit_against_server(self, tcp_server, tmp_path, capsys):
        import json

        from repro.cli import main

        tcp, program = tcp_server
        host, port = tcp.address
        inputs_path = tmp_path / "inputs.json"
        inputs_path.write_text(json.dumps({"x": [0.5] * 8}))
        code = main(
            [
                "submit",
                "poly",
                "--inputs",
                str(inputs_path),
                "--host",
                host,
                "--port",
                str(port),
                "--head",
                "8",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        reference = execute_reference(program.graph, {"x": [0.5] * 8})
        np.testing.assert_allclose(payload["outputs"]["y"], reference["y"][:8], atol=1e-3)
        assert payload["stats"]["program"] == "poly"


class TestLaneReviewRegressions:
    """Regressions from review: pinned-lane width contract, output periods,
    and re-registration races in signature-grouped batches."""

    def test_pinned_lane_rejects_wider_requests(self):
        """A request wider than a registered lane width must error, not be
        computed wrongly by the lane-local rotations."""
        program = make_rotation_program(vec_size=64)
        with EvaServer(
            backend=MockBackend(error_model="none"), workers=1, batch_window=0.0
        ) as server:
            server.register("rot", program, options=CompilerOptions(lane_width=8))
            with pytest.raises(ServingError, match="lane width"):
                server.request("rot", {"x": np.arange(64, dtype=float)})
            with pytest.raises(ServingError, match="lane width"):
                server.request("rot", {"x": np.ones(4)}, output_size=16)
            # Requests at or below the lane width still work.
            xv = np.arange(8, dtype=float) / 8.0
            response = server.request("rot", {"x": xv})
            reference = execute_reference(program.graph, {"x": xv})
            np.testing.assert_allclose(response["y"], reference["y"][:8], rtol=1e-9)

    def test_solo_width_covers_constant_period(self):
        """A constant wider than the request widens the reply to the output's
        true period instead of silently truncating it."""
        program = EvaProgram("wide", vec_size=16, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("y", (x << 1) * list(np.arange(1.0, 9.0)), 25)
        with EvaServer(
            backend=MockBackend(error_model="none"), workers=1, batch_window=0.0
        ) as server:
            server.register("wide", program)
            response = server.request("wide", {"x": [1.0, 2.0, 3.0, 4.0]})
        reference = execute_reference(program.graph, {"x": [1.0, 2.0, 3.0, 4.0]})
        assert len(response["y"]) == 8  # lcm(request 4, constant 8)
        np.testing.assert_allclose(response["y"], reference["y"][:8], rtol=1e-9)

    @staticmethod
    def _make_jobs(server, kind, signature, named_inputs):
        """Build a worker batch by hand (deterministic re-registration races).

        Returns the jobs and a ``decrypt(response)`` for their answers: an
        encrypted batch carries bundles of a client whose session is attached
        first, and only that client can read the replies.
        """
        from concurrent.futures import Future

        from repro.serving import EncryptedServeRequest, Job, ServeRequest

        if kind == "plain":
            payloads = [
                ServeRequest(inputs=dict(inputs), name=name) for name, inputs in named_inputs
            ]

            def decrypt(response):
                return response.outputs

        else:
            kit = ClientKit(
                CompiledProgram.compile(make_poly_program(vec_size=64)),
                backend=server.backend,
                client_id="c",
            )
            assert kit.compiled.signature == signature
            server.create_session(named_inputs[0][0], "c", kit.evaluation_context())
            payloads = [
                EncryptedServeRequest(bundle=kit.encrypt_inputs(inputs), name=name)
                for name, inputs in named_inputs
            ]

            def decrypt(response):
                return kit.decrypt_outputs(response.outputs)

        jobs = [
            Job(
                id=index,
                group=(kind, signature, "c"),
                payload=payload,
                future=Future(),
                submitted_at=0.0,
            )
            for index, payload in enumerate(payloads)
        ]
        return jobs, decrypt

    @pytest.mark.parametrize("kind", ["plain", "encrypted"])
    def test_reregistered_name_cannot_answer_other_names_batch(self, kind):
        """A name re-registered to a different program mid-flight must not
        execute jobs grouped under the old signature."""
        program = make_poly_program(vec_size=64)
        with EvaServer(
            backend=MockBackend(error_model="none"), workers=1, batch_window=0.0
        ) as server:
            spec = server.register("a", program)
            server.register("b", make_poly_program(name="b", vec_size=64))
            jobs, decrypt = self._make_jobs(
                server,
                kind,
                spec.signature,
                [("a", {"x": [0.5] * 8}), ("b", {"x": [0.25] * 8})],
            )
            # Between admission and handling, 'a' changes meaning; 'b' still
            # carries the grouped signature and must answer the whole batch
            # with the *original* compilation.
            server.register("a", make_poly_program(coeff=9.0, vec_size=64))
            responses = server._handle_batch(jobs)
            for xv, response in zip([[0.5] * 8, [0.25] * 8], responses):
                reference = execute_reference(program.graph, {"x": xv})
                np.testing.assert_allclose(
                    decrypt(response)["y"][:8], reference["y"][:8], rtol=1e-9
                )

    @pytest.mark.parametrize("kind", ["plain", "encrypted"])
    def test_batch_with_no_matching_signature_fails_cleanly(self, kind):
        program = make_poly_program(vec_size=64)
        with EvaServer(
            backend=MockBackend(error_model="none"), workers=1, batch_window=0.0
        ) as server:
            spec = server.register("only", program)
            jobs, _ = self._make_jobs(
                server, kind, spec.signature, [("only", {"x": [0.5] * 8})]
            )
            server.register("only", make_poly_program(coeff=9.0, vec_size=64))
            with pytest.raises(UnknownProgramError):
                server._handle_batch(jobs)

    def test_lane_masks_do_not_inflate_min_lane(self):
        from repro.core import CompilerOptions as _Options
        from repro.serving.batching import min_lane_width

        program = make_rotation_program(vec_size=64)
        lowered = compile_program(program.graph, options=_Options(lane_width=16))
        # The 16-wide masks are marked compiler plumbing; only the program's
        # real constants (scalars here) count toward the output period.
        assert min_lane_width(lowered.program) == 1
        # ... and the marker survives the artifact record's round trip...
        restored = CompiledProgram.from_record(lowered.to_record()).program
        assert min_lane_width(restored) == 1
        # ... and the binary proto round trip (what save()/load() do).
        from repro.core.serialization import deserialize, serialize

        reloaded = deserialize(serialize(lowered.program))
        assert min_lane_width(reloaded) == 1


class TestSloScheduling:
    """Deadline admission and per-request batch-vs-solo (SLO classes)."""

    def test_linger_budget_per_class(self):
        from repro.serving import linger_budget

        # tight never lingers; relaxed always takes the full window.
        assert linger_budget("tight", 0.5, 0.001, 1.0) == 0.0
        assert linger_budget("relaxed", 0.5, 0.001, 1.0) == 0.5
        # standard is capped by its deadline slack after execution...
        assert linger_budget("standard", 0.5, 0.3, 0.1) == pytest.approx(0.2)
        # ... stays solo (not negative) when slack just covers execution...
        assert linger_budget("standard", 0.5, 0.1, 0.1) == 0.0
        assert linger_budget("standard", 0.5, 0.05, 0.1) == 0.0
        # ... and takes the full window with no deadline at all.
        assert linger_budget("standard", 0.5, None, 0.0) == 0.5

    def test_infeasible_deadline_rejected_with_retry_after(self):
        from repro.errors import DeadlineInfeasibleError

        with JobEngine(lambda jobs: [None] * len(jobs), workers=1) as engine:
            # Modeled solo execution of 500ms cannot meet a 5ms deadline.
            with pytest.raises(DeadlineInfeasibleError, match="infeasible") as info:
                engine.submit("g", 0, deadline_ms=5.0, execute_estimate=0.5)
            assert info.value.retry_after >= 0.05
            assert engine.metrics_snapshot()["deadline_rejected"] == 1
            # Without a deadline the same job is admitted normally.
            assert engine.submit("g", 1).result(10) is None
        with pytest.raises(ValueError, match="unknown SLO class"):
            JobEngine(lambda jobs: jobs, workers=1).submit("g", 0, slo_class="bogus")

    def test_deadline_at_batch_horizon_goes_solo_not_rejected(self):
        """Slack that covers execution but not the linger window admits solo.

        The admission model deliberately excludes the batch window: with a
        1s window, an 800ms deadline and a 600ms execute estimate, the
        request must neither be rejected nor held for the full window — it
        lingers for its 200ms of slack and leaves as a batch of one.  The
        handler returns at once, so the engine's own attained/missed verdict
        has the whole 600ms estimate as margin against a stalled CI box; no
        wall-clock reading here is tighter than that.
        """
        batches = []

        def handler(jobs):
            batches.append([job.payload for job in jobs])
            return [None] * len(jobs)

        with JobEngine(handler, workers=1, batch_window=1.0, max_batch=8) as engine:
            started = time.perf_counter()
            future = engine.submit("g", 0, deadline_ms=800.0, execute_estimate=0.6)
            assert future.result(10) is None
            elapsed = time.perf_counter() - started
            assert elapsed < 0.9, "standard job was held for the full batch window"
            assert engine.metrics_snapshot()["deadline_rejected"] == 0
            assert batches == [[0]]
            assert engine.metrics_snapshot()["slo_attained"] == 1

    def test_tight_skips_linger_while_relaxed_amortizes(self):
        """Under the same window, tight goes solo now, relaxed fills lanes."""
        batches = []

        def handler(jobs):
            batches.append([job.payload for job in jobs])
            return [None] * len(jobs)

        with JobEngine(handler, workers=1, batch_window=0.4, max_batch=4) as engine:
            started = time.perf_counter()
            tight = engine.submit("g", "t0", slo_class="tight", client="a")
            assert tight.result(10) is None
            assert time.perf_counter() - started < 0.3, "tight job lingered"

            # A relaxed job holds the window open long enough for a straggler
            # submitted well after it to share its batch.
            first = engine.submit("g", "r0", slo_class="relaxed", client="b")
            time.sleep(0.1)
            second = engine.submit("g", "r1", slo_class="relaxed", client="b")
            assert first.result(10) is None and second.result(10) is None
        assert ["t0"] in batches
        assert ["r0", "r1"] in batches
        assert engine.metrics_snapshot()["largest_batch"] == 2

    def test_wire_carries_deadline_and_typed_rejection(self):
        """The full loop over TCP: SLO fields on the envelope, typed error back."""
        from repro.errors import DeadlineInfeasibleError

        program = make_poly_program(vec_size=32)
        eva = EvaServer(backend=MockBackend(seed=5), workers=1, batch_window=0.0)
        eva.register("poly", program)
        tcp = EvaTcpServer(eva, port=0)
        tcp.start_background()
        try:
            host, port = tcp.address
            with ServingClient(host, port) as client:
                # A generous deadline is served (and scored as attained);
                # this also seeds the server's cost estimate and the
                # engine's observed wait/execute history.
                outputs = client.submit(
                    "poly", {"x": [1.0, 2.0]}, deadline_ms=10_000.0,
                    slo_class="standard",
                )
                assert "y" in outputs
                assert eva.engine.metrics_snapshot()["slo_attained"] == 1
                # A 1 microsecond deadline is below any modeled execute time.
                with pytest.raises(DeadlineInfeasibleError) as info:
                    client.submit("poly", {"x": [1.0, 2.0]}, deadline_ms=0.001)
                assert info.value.retry_after > 0
                assert eva.engine.metrics_snapshot()["deadline_rejected"] == 1
                # The connection survives the rejection.
                assert client.ping()
            snapshot = eva.metrics_snapshot()
            names = {c["name"] for c in snapshot["counters"]}
            assert "serving.slo.attained" in names
            assert "serving.slo.rejected" in names
        finally:
            tcp.shutdown()
            tcp.server_close()
            eva.close()


class TestLingerEndsWithEveryCaller:
    """``batch_window`` is a ceiling: a batch that holds a job from every live
    listener connection closes at once, since none of them can send another
    request before this one is answered.  All under a 1 s window."""

    @staticmethod
    def engine(batches, fail=(), gate=None):
        def handler(jobs):
            if jobs[0].payload == "block":
                gate.wait(10)
            batches.append([(job.payload, job.batch_closed) for job in jobs])
            if jobs[0].payload in fail:
                raise RuntimeError("kaput")
            return [job.payload for job in jobs]

        return JobEngine(handler, workers=1, batch_window=1.0, max_batch=8)

    @staticmethod
    def timed_pair(engine, callers=(1, 2)):
        started = time.perf_counter()
        futures = [engine.submit("g", f"p{caller}", caller=caller) for caller in callers]
        for future in futures:
            future.result(10)
        return time.perf_counter() - started

    def test_a_job_from_every_caller_closes_the_batch(self):
        batches = []
        with self.engine(batches) as engine:
            engine.set_callers([1, 2])
            assert self.timed_pair(engine) < 0.2
        assert batches == [[("p1", "callers"), ("p2", "callers")]]

    @pytest.mark.parametrize("callers, jobs", [
        ([1, 2, 3], (1, 2)),  # a live connection has sent nothing yet
        ([1], (1, None)),  # a job that did not come through the listener
        (None, (1, 2)),  # an engine no listener reports to
    ])  # fmt: skip
    def test_company_that_can_still_come_keeps_the_window(self, callers, jobs):
        batches = []
        with self.engine(batches) as engine:
            if callers is not None:
                engine.set_callers(callers)
            assert self.timed_pair(engine, jobs) > 0.9
        assert [[closed for _, closed in batch] for batch in batches] == [["window"] * 2]

    def test_a_caller_closing_during_the_linger_wakes_the_worker(self):
        batches = []
        with self.engine(batches) as engine:
            engine.set_callers([1, 2, 3])
            futures = [engine.submit("g", f"p{caller}", caller=caller) for caller in (1, 2)]
            time.sleep(0.1)
            started = time.perf_counter()
            engine.set_callers([1, 2])
            for future in futures:
                future.result(10)
            assert time.perf_counter() - started < 0.2
        assert batches == [[("p1", "callers"), ("p2", "callers")]]

    @pytest.mark.parametrize("settle", ["cancelled", "failed"])
    def test_settled_jobs_leave_no_caller_behind(self, settle):
        """After caller 2's job is cancelled or fails, a lone job of caller 1
        still waits for company, and a pair still closes at once."""
        batches = []
        gate = threading.Event()
        with self.engine(batches, fail={"p2"}, gate=gate) as engine:
            engine.set_callers([1, 2])
            if settle == "cancelled":
                blocker = engine.submit("block", "block", slo_class="tight")
                doomed = engine.submit("g", "p2", caller=2)
                assert doomed.cancel()
                gate.set()
                blocker.result(10)
            else:
                with pytest.raises(RuntimeError, match="kaput"):
                    engine.submit("g", "p2", caller=2, slo_class="tight").result(10)
            started = time.perf_counter()
            assert engine.submit("g", "p1", caller=1).result(10) == "p1"
            assert time.perf_counter() - started > 0.9
            assert self.timed_pair(engine) < 0.2
        assert batches[-2:] == [[("p1", "window")], [("p1", "callers"), ("p2", "callers")]]
        assert engine.metrics_snapshot()[settle] == 1

    def test_callers_coming_and_going_under_a_short_switch_interval(self):
        """Six connections, one request in flight each, leaving one by one:
        every batch holds exactly one job per live connection and closes on
        ``callers``, so there is one batch per round.  A lost wake-up would
        linger out the 30 s window; a lost update would split a round."""
        batches = []
        rounds = {key: 5 + key for key in range(6)}
        live, lock = set(rounds), threading.Lock()

        def handler(jobs):
            batches.append(([job.caller for job in jobs], jobs[0].batch_closed))
            return [None] * len(jobs)

        def connection(engine, key):
            for index in range(rounds[key]):
                engine.submit("g", index, caller=key).result(10)
            with lock:
                live.discard(key)
                engine.set_callers(live)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with JobEngine(handler, workers=1, batch_window=30.0, max_batch=8) as engine:
                engine.set_callers(live)
                threads = [threading.Thread(target=connection, args=(engine, key)) for key in rounds]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(20)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(batches) == max(rounds.values())
        for index, (callers, closed) in enumerate(batches):
            assert sorted(callers) == [key for key in rounds if rounds[key] > index]
            assert closed == "callers"

    @pytest.mark.parametrize("cancel_pending", [False, True])
    def test_shutdown_ends_the_linger(self, cancel_pending):
        """Drained or shut down, a lingering batch runs at once and every
        future settles."""
        batches = []
        engine = self.engine(batches)
        engine.set_callers([1, 2, 3])
        futures = [engine.submit("g", f"p{caller}", caller=caller) for caller in (1, 2)]
        time.sleep(0.1)
        started = time.perf_counter()
        engine.shutdown(wait=True, cancel_pending=cancel_pending)
        assert time.perf_counter() - started < 0.5
        assert [future.result(0) for future in futures] == ["p1", "p2"]
        assert batches == [[("p1", "window"), ("p2", "window")]]

    @pytest.fixture()
    def listener(self):
        eva = EvaServer(backend=MockBackend(seed=5), workers=1, batch_window=1.0)
        eva.register("poly", make_poly_program(vec_size=32))
        tcp = EvaTcpServer(eva, port=0)
        tcp.start_background()
        yield tcp.address
        tcp.shutdown()
        tcp.server_close()
        eva.close()

    @staticmethod
    def submit_together(clients):
        def submit(client, value):
            client.submit("poly", {"x": [value] * 4}, trace=True)
            return client.last_stats, client.last_trace

        with ThreadPoolExecutor(max_workers=len(clients)) as pool:
            return list(pool.map(submit, clients, (0.5, 0.25)))

    @pytest.mark.parametrize("third", [None, "idle", "gone"])
    def test_a_json_and_a_binary_connection_share_a_batch(self, listener, third):
        """Through the listener: with every live connection in the batch it
        closes at once; a third, idle connection holds it for the window,
        one that has closed does not."""
        host, port = listener
        with ExitStack() as stack:
            clients = [stack.enter_context(ServingClient(host, port, wire=wire)) for wire in ("json", "binary")]
            if third is not None:
                clients.append(stack.enter_context(ServingClient(host, port)))
            for client in clients:  # every connection is registered before the pair goes
                assert client.ping()
            if third == "gone":
                clients[2].close()
            replies = self.submit_together(clients[:2])
        for stats, trace in replies:
            assert stats["batch_size"] == 2
            if third == "idle":
                assert stats["queue_seconds"] > 0.8
            else:
                assert stats["queue_seconds"] < 0.2
            (batch_form,) = [span for span in trace["spans"] if span["stage"] == "batch_form"]
            assert batch_form["closed"] == ("window" if third == "idle" else "callers")


# ---------------------------------------------------------------------------
# One evaluation spine: one behaviour, every kind of request, both backends.
# ---------------------------------------------------------------------------

#: Primes are capped at 30 bits on the real backend; the mock takes the same
#: options so both backends serve the same compilation.
SPINE_OPTIONS = CompilerOptions(max_rescale_bits=25)

#: backend id -> (factory, absolute tolerance against ``execute_reference``).
SPINE_BACKENDS = {
    "mock": (lambda: MockBackend(error_model="none"), 1e-9),
    "ckks": (lambda: CkksBackend(seed=3), 5e-2),  # real RNS-CKKS at N=4096
}

#: The stages every request records between admission and its reply,
#: whichever kind it is (``serialize_reply`` belongs to the TCP transport).
SPINE_STAGES = {"quota_admission", "compile_or_cache", "queue_wait", "batch_form", "execute"}


def make_spine_program(vec_size=64):
    """Two outputs, one rotation: not slotwise, so it packs only lane-lowered."""
    program = EvaProgram("spine", vec_size=vec_size, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", (x << 1) * x, 25)
        output("z", x * 0.5 + 1.0, 25)
    return program


def make_mix_program(vec_size=64):
    """Two encrypted inputs (so one can go missing) and a rotation."""
    program = EvaProgram("mix", vec_size=vec_size, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        y = input_encrypted("y", 25)
        output("out", (x << 1) * y + x, 25)
    return program


@dataclass(frozen=True)
class Kind:
    """One way a request reaches the spine; ``jobs`` > 1 means one packed unit."""

    name: str
    program: Callable
    jobs: int = 1
    encrypted: bool = False
    wire: bool = False
    #: Lane width of the compilation expected to answer (a lane variant).
    lane_width: Optional[int] = None


KINDS = [
    Kind("plain-solo", make_spine_program),
    Kind("plain-packed-slotwise", make_poly_program, jobs=3),
    Kind("plain-packed-lane", make_spine_program, jobs=3, lane_width=8),
    Kind("encrypted-live", make_spine_program, encrypted=True),
    Kind("encrypted-wire", make_spine_program, encrypted=True, wire=True),
]


def handle_accounts(server):
    """(live, peak) ciphertext counters of every session context, in order."""
    manager = server.sessions
    sessions = [*manager._sessions.values(), *manager._attached.values()]
    return [
        (s.context.live_ciphertexts, s.context.peak_live_ciphertexts) for s in sessions
    ]


def spine_server(backend, jobs=1):
    """One worker; a batch closes the moment it holds ``jobs`` jobs, so a
    generous window costs nothing and packing does not depend on timing."""
    return EvaServer(backend=backend, workers=1, max_batch=jobs, batch_window=1.0)


def serve(server, name, kit, requests, tag, encrypted=False, wire=False, garble=None):
    """Serve ``requests`` as one unit; returns (responses, answers, trace ids).

    Plaintext requests are submitted together (``max_batch`` makes them one
    batch).  An encrypted request goes through the client's kit, the reply
    through ``to_wire`` when the bundle came over the wire; either way the
    caller plays the transport and releases the output handles once it has
    read them.  ``garble`` names a ciphertext of the wire bundle to replace
    with something that does not decode.
    """
    trace_ids = [f"{tag}-{index}" for index in range(len(requests))]
    if not encrypted:
        futures = [
            server.submit(name, request, client_id="carol", trace_id=trace_id)
            for request, trace_id in zip(requests, trace_ids)
        ]
        responses = [future.result(60) for future in futures]
        return responses, [response.outputs for response in responses], trace_ids
    (request,) = requests
    bundle = kit.encrypt_inputs(request) if isinstance(request, dict) else request
    payload = kit.bundle_to_wire(bundle) if wire else bundle
    if garble:
        payload["ciphertexts"][garble] = {"scheme": "garbage"}
    response = server.request_encrypted(
        name,
        payload,
        client_id="carol",
        trace_id=trace_ids[0],
        timeout=60,
    )
    outputs = kit.outputs_from_wire(response.to_wire()) if wire else response.outputs
    answer = kit.decrypt_outputs(outputs)
    response.release()
    return [response], [answer], trace_ids


@pytest.mark.parametrize("backend_id", sorted(SPINE_BACKENDS))
class TestOneEvaluationSpine:
    """Every kind of request is the same evaluation with different ends."""

    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.name)
    def test_one_behaviour_every_kind(self, backend_id, kind):
        factory, atol = SPINE_BACKENDS[backend_id]
        backend = factory()
        program = kind.program()
        rng = np.random.default_rng(17)
        requests = [{"x": rng.uniform(-1, 1, 8)} for _ in range(kind.jobs)]
        # The static rotation count of the compilation expected to answer.
        per_evaluation = SlotBatcher().inspect(
            compile_program(
                program.graph, options=replace(SPINE_OPTIONS, lane_width=kind.lane_width)
            )
        ).rotations
        with spine_server(backend, kind.jobs) as server:
            server.register("prog", program, options=SPINE_OPTIONS)
            kit = None
            if kind.encrypted:
                kit = ClientKit(
                    CompiledProgram.compile(program, options=SPINE_OPTIONS),
                    backend=backend,
                    client_id="carol",
                )
                server.create_session("prog", "carol", kit.evaluation_context())
            responses, answers, trace_ids = serve(
                server, "prog", kit, requests, "first", kind.encrypted, kind.wire
            )

            # Answers: the reference's, at the request's width.
            for request, response, answer in zip(requests, responses, answers):
                reference = execute_reference(program.graph, request)
                assert set(answer) == set(reference)
                for name, values in answer.items():
                    if not kind.encrypted:
                        assert len(values) == 8
                    np.testing.assert_allclose(values[:8], reference[name][:8], atol=atol)
                stats = response.stats_dict()
                assert stats["program"] == "prog" and stats["client_id"] == "carol"
                if kind.encrypted:
                    assert isinstance(response.outputs, EncryptedOutputs)
                    assert stats["encrypted"] is True
                else:
                    assert stats["batch_size"] == kind.jobs
                    assert stats["lane_width"] == kind.lane_width

            # Spans: the same stages, whatever the kind.
            for trace_id in trace_ids:
                spans = server.telemetry.trace_of(trace_id)["spans"]
                assert {span["stage"] for span in spans} == SPINE_STAGES

            # Counters: the static rotation tax once per *evaluation* — one
            # packed unit answered every job — and the backend's own per-op
            # counts harvested exactly once.
            registry = server.telemetry.registry
            rotations = registry.counter_value(
                "serving.rotations", program="prog", client="carol"
            )
            assert rotations == per_evaluation
            if backend_id == "ckks" and rotations:
                assert registry.counter_value(
                    "ckks.op.count", op="rotate", program="prog"
                ) == per_evaluation

            # ... and again once per evaluation on every later request.
            for round_index in range(2):
                serve(
                    server, "prog", kit, requests, f"again{round_index}",
                    kind.encrypted, kind.wire,
                )
            assert registry.counter_value(
                "serving.rotations", program="prog", client="carol"
            ) == 3 * per_evaluation

    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.name)
    def test_answered_requests_release_every_handle(self, backend_id, kind):
        """Every handle a request acquired is released by the time it is
        answered (for ciphertext replies: once the transport has let go of
        them), so a reused context's counters repeat exactly."""
        factory, _ = SPINE_BACKENDS[backend_id]
        backend = factory()
        program = kind.program()
        requests = [{"x": np.linspace(-1, 1, 8)}] * kind.jobs
        with spine_server(backend, kind.jobs) as server:
            server.register("prog", program, options=SPINE_OPTIONS)
            kit = ClientKit(
                CompiledProgram.compile(program, options=SPINE_OPTIONS),
                backend=backend,
                client_id="carol",
            )
            if kind.encrypted:
                server.create_session("prog", "carol", kit.evaluation_context())
            accounts = []
            for round_index in range(10):
                serve(
                    server, "prog", kit, requests, f"round{round_index}",
                    kind.encrypted, kind.wire,
                )
                accounts.append(handle_accounts(server))
            first, tenth = accounts[0], accounts[-1]
            assert len(first) == len(tenth) == 1
            assert first[0][1] > 0
            assert {
                "live after the first request": first[0][0],
                "live after the tenth": tenth[0][0],
                "peak after the tenth": tenth[0][1],
            } == {
                "live after the first request": 0,
                "live after the tenth": 0,
                "peak after the tenth": first[0][1],
            }

    @pytest.mark.parametrize(
        "case",
        [
            "plain-solo-over-pinned-lane",
            "plain-solo-missing-input",
            "plain-packed-missing-input",
            "encrypted-live-missing-ciphertext",
            "encrypted-wire-missing-ciphertext",
            "encrypted-live-signature-mismatch",
            "encrypted-wire-signature-mismatch",
            "encrypted-wire-undecodable-ciphertext",
            # The evaluation itself fails mid-DAG, its intermediates already made.
            "plain-solo-failing-multiply",
            "encrypted-live-failing-multiply",
            "encrypted-wire-failing-multiply",
        ],
    )
    def test_failed_requests_release_every_handle(self, backend_id, case):
        factory, _ = SPINE_BACKENDS[backend_id]
        backend = factory()
        program = make_mix_program()
        encrypted, wire = case.startswith("encrypted"), "wire" in case
        jobs = 3 if "packed" in case else 1
        good = {"x": np.linspace(-1, 1, 8), "y": np.linspace(1, -1, 8)}
        with spine_server(backend, jobs) as server:
            options = replace(SPINE_OPTIONS, lane_width=8)
            server.register("mix", program, options=options)
            kit = ClientKit(
                CompiledProgram.compile(program, options=options),
                backend=backend,
                client_id="carol",
            )
            if encrypted:
                server.create_session("mix", "carol", kit.evaluation_context())
            serve(server, "mix", kit, [good] * jobs, "good", encrypted, wire)
            baseline = handle_accounts(server)
            assert all(live == 0 for live, _ in baseline)

            garble = None
            if "failing-multiply" in case:
                bad, error, text = good, ExecutionError, "injected failure"
                (session,) = [*server.sessions._sessions.values(), *server.sessions._attached.values()]

                def failing_multiply(*_handles):
                    raise ExecutionError("injected failure")

                session.context.multiply = failing_multiply
            elif case == "plain-solo-over-pinned-lane":
                bad = {"x": np.ones(16), "y": np.ones(16)}
                error, text = ServingError, "exceeds the lane width"
            elif not encrypted:
                bad, error, text = {"x": good["x"]}, ExecutionError, "missing value for input 'y'"
            else:
                bad = kit.encrypt_inputs(good)
                if "undecodable" in case:
                    # 'x' decodes before 'y' turns out not to.
                    garble, error, text = "y", SerializationError, "not a .* ciphertext"
                elif "missing" in case:
                    del bad.ciphertexts["y"]
                    error, text = ExecutionError, "missing ciphertext for encrypted input 'y'"
                else:
                    bad.program_signature = "0" * 64
                    error, text = ServingError, "encrypted for a different compilation"
            for attempt in range(3):
                with pytest.raises(error, match=text):
                    serve(
                        server, "mix", kit, [bad] * jobs, f"bad{attempt}", encrypted, wire,
                        garble,
                    )
                assert [live for live, _ in handle_accounts(server)] == [
                    live for live, _ in baseline
                ]
            # ... and a failure leaves nothing behind that a later good
            # request would push the peak up with.
            if "failing-multiply" in case:
                del session.context.multiply
            serve(server, "mix", kit, [good] * jobs, "good-again", encrypted, wire)
            assert handle_accounts(server) == baseline

    def test_entry_points_agree(self, backend_id):
        """``Executor.execute``, a server given the client's compilation and
        every ``EvaServer`` kind are one evaluation: same program, same answers."""
        factory, atol = SPINE_BACKENDS[backend_id]
        backend = factory()
        program = make_spine_program()
        request = {"x": np.linspace(-1, 1, 8)}
        compiled = CompiledProgram.compile(program, options=SPINE_OPTIONS)
        kit = ClientKit(compiled, backend=backend, client_id="carol")
        answers = {"executor": Executor(compiled, backend).execute(request).outputs}
        with spine_server(backend) as server:
            server.register("compiled", compiled)
            server.create_session("compiled", "carol", kit.evaluation_context())
            _, (answers["registered-compilation"],), _ = serve(
                server, "compiled", kit, [request], "compiled", encrypted=True
            )
        with spine_server(backend) as server:
            server.register("prog", program, options=SPINE_OPTIONS)
            server.create_session("prog", "carol", kit.evaluation_context())
            for kind in KINDS:
                if kind.program is make_spine_program and kind.jobs == 1:
                    _, (answer,), _ = serve(
                        server, "prog", kit, [request], kind.name, kind.encrypted, kind.wire
                    )
                    answers[kind.name] = answer
        with spine_server(backend, 3) as server:
            server.register("prog", program, options=SPINE_OPTIONS)
            responses, packed, _ = serve(server, "prog", None, [request] * 3, "packed")
            assert responses[0].lane_width == 8
            answers["plain-packed-lane"] = packed[0]
        assert len(answers) == 6
        reference = execute_reference(program.graph, request)
        for source, answer in answers.items():
            for name in reference:
                np.testing.assert_allclose(
                    answer[name][:8], reference[name][:8], atol=atol, err_msg=source
                )
                np.testing.assert_allclose(
                    answer[name][:8], answers["executor"][name][:8], atol=2 * atol,
                    err_msg=source,
                )
        # A lane-batched reply has the width (and values) of the solo one.
        assert len(answers["plain-packed-lane"]["y"]) == len(answers["plain-solo"]["y"])

    def test_one_engine_per_program(self, backend_id, monkeypatch):
        """A program served plain and encrypted builds one engine: the scale
        analysis runs once per signature, not once per kind."""
        import repro.core.executor as executor_module

        factory, _ = SPINE_BACKENDS[backend_id]
        backend = factory()
        program = make_spine_program()
        kit = ClientKit(
            CompiledProgram.compile(program, options=SPINE_OPTIONS),
            backend=backend,
            client_id="carol",
        )
        analysed = []
        original = executor_module.compute_scales

        def counting(graph):
            analysed.append(graph)
            return original(graph)

        monkeypatch.setattr(executor_module, "compute_scales", counting)
        request = {"x": np.linspace(-1, 1, 8)}
        with spine_server(backend) as server:
            server.register("prog", program, options=SPINE_OPTIONS)
            server.create_session("prog", "carol", kit.evaluation_context())
            for kind in (KINDS[0], KINDS[3], KINDS[4], KINDS[0]):
                serve(server, "prog", kit, [request], kind.name, kind.encrypted, kind.wire)
            assert len(analysed) == 1
            assert len(server._served) == 1

    @pytest.mark.parametrize("bad_value", [[0.5, float("nan")], "abc"], ids=["nan", "text"])
    def test_bad_input_is_rejected_alone_at_admission(self, backend_id, bad_value):
        """A NaN or a string never reaches the vector its neighbours share:
        it fails at ``submit``, and the requests around it are answered —
        batched — as if it had never been sent."""
        factory, atol = SPINE_BACKENDS[backend_id]
        program = make_poly_program(vec_size=64)
        with spine_server(factory(), 2) as server:
            server.register("poly", program, options=SPINE_OPTIONS)
            first = server.submit("poly", {"x": [0.5] * 8})
            error = EncodingError if isinstance(bad_value, list) else ServingError
            with pytest.raises(error, match="non-finite|not numeric"):
                server.submit("poly", {"x": bad_value})
            second = server.submit("poly", {"x": [0.25] * 8})
            for future, value in ((first, 0.5), (second, 0.25)):
                response = future.result(60)
                assert response.batch_size == 2
                reference = execute_reference(program.graph, {"x": [value] * 8})
                np.testing.assert_allclose(response["y"], reference["y"][:8], atol=atol)
            assert server.stats()["engine"]["failed"] == 0

    def test_encrypted_jobs_do_not_linger(self, backend_id):
        """Jobs that cannot share an evaluation do not wait for company: an
        encrypted job alone under a 1 s window leaves at once, while two
        plaintext jobs 50 ms apart still share one batch."""
        factory, _ = SPINE_BACKENDS[backend_id]
        backend = factory()
        program = make_poly_program(vec_size=64)
        kit = ClientKit(
            CompiledProgram.compile(program, options=SPINE_OPTIONS),
            backend=backend,
            client_id="carol",
        )
        with EvaServer(backend=backend, workers=1, max_batch=2, batch_window=1.0) as server:
            server.register("poly", program, options=SPINE_OPTIONS)
            server.create_session("poly", "carol", kit.evaluation_context())
            bundle = kit.encrypt_inputs({"x": [0.5] * 8})
            started = time.perf_counter()
            server.request_encrypted("poly", bundle, trace_id="enc", timeout=60).release()
            assert time.perf_counter() - started < 0.5, "an encrypted job lingered"
            (batch_form,) = [
                span
                for span in server.telemetry.trace_of("enc")["spans"]
                if span["stage"] == "batch_form"
            ]
            assert batch_form["seconds"] < 0.05

            first = server.submit("poly", {"x": [0.5] * 8})
            time.sleep(0.05)
            second = server.submit("poly", {"x": [0.25] * 8})
            assert first.result(60).batch_size == 2
            assert second.result(60).batch_size == 2


class TestRegisteredCompilation:
    """``register(name, compiled)``: the client's compilation, served as it is."""

    @staticmethod
    def _kit(compiled):
        return ClientKit(compiled, backend=MockBackend(error_model="none"), client_id="carol")

    def _answer(self, server, kit, request, name="prog"):
        response = server.request_encrypted(name, kit.encrypt_inputs(request), timeout=30)
        answer = kit.decrypt_outputs(response.outputs)
        response.release()
        return response.outputs.program_signature, answer

    def test_nothing_is_hashed_or_compiled_again(self, monkeypatch):
        import repro.serving.registry as registry_module
        import repro.serving.server as server_module

        compiled = CompiledProgram.compile(make_spine_program(), options=SPINE_OPTIONS)
        kit = self._kit(compiled)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a registered compilation was hashed or compiled again")

        monkeypatch.setattr(server_module, "program_signature", forbidden)
        monkeypatch.setattr(registry_module, "program_signature", forbidden)
        monkeypatch.setattr(registry_module.EvaCompiler, "compile", forbidden)
        request = {"x": np.linspace(-1, 1, 64)}
        with EvaServer(backend=kit.backend) as server:
            spec = server.register("prog", compiled)
            assert spec.signature == compiled.signature
            session = server.create_session("prog", "carol", kit.evaluation_context())
            assert session["signature"] == compiled.signature
            signature, answer = self._answer(server, kit, request)
            assert server.registry.summary()["misses"] == 0
        assert signature == compiled.signature
        reference = execute_reference(make_spine_program().graph, request)
        for name, want in reference.items():
            np.testing.assert_allclose(answer[name], want, atol=1e-9)

    def test_a_recompile_after_eviction_serves_the_same_answers(self):
        compiled = CompiledProgram.compile(make_spine_program(), options=SPINE_OPTIONS)
        kit = self._kit(compiled)
        request = {"x": np.linspace(-1, 1, 64)}
        with EvaServer(backend=kit.backend) as server:
            server.register("prog", compiled)
            server.create_session("prog", "carol", kit.evaluation_context())
            before = self._answer(server, kit, request)
            server.registry.clear()
            after = self._answer(server, kit, request)
            recompiled = server.registry.get_or_compile(None, signature=compiled.signature)
            assert server.registry.summary()["misses"] == 1  # the one recompile
        assert recompiled is not None and recompiled is not compiled
        assert recompiled.parameters == compiled.parameters
        assert before[0] == after[0] == compiled.signature
        for name in before[1]:
            assert np.array_equal(before[1][name], after[1][name])

    def test_plaintext_batches_use_a_lane_variant_of_its_source(self):
        compiled = CompiledProgram.compile(make_spine_program(), options=SPINE_OPTIONS)
        requests = [{"x": np.linspace(-1, 1, 8) * scale} for scale in (0.3, 0.6, 0.9)]
        with spine_server(MockBackend(error_model="none"), 3) as server:
            server.register("prog", compiled)
            responses, answers, _ = serve(server, "prog", None, requests, "packed")
        assert [response.lane_width for response in responses] == [8, 8, 8]
        for request, answer in zip(requests, answers):
            reference = execute_reference(make_spine_program().graph, request)
            for name in reference:
                np.testing.assert_allclose(answer[name][:8], reference[name][:8], atol=1e-9)

    def test_a_compilation_without_its_source_is_refused(self):
        compiled = CompiledProgram.compile(make_spine_program(), options=SPINE_OPTIONS)
        with EvaServer() as server:
            with pytest.raises(ServingError, match="no source program"):
                server.register("prog", replace(compiled, source=None))
            assert server.programs() == []

    @pytest.mark.parametrize(
        "keyword",
        [{"options": SPINE_OPTIONS}, {"input_scales": {"x": 25}}, {"output_scales": {"y": 25}}],
        ids=["options", "input_scales", "output_scales"],
    )
    def test_a_compilation_takes_no_compile_arguments(self, keyword):
        compiled = CompiledProgram.compile(make_spine_program(), options=SPINE_OPTIONS)
        with EvaServer() as server:
            with pytest.raises(ServingError, match="carries its own options"):
                server.register("prog", compiled, **keyword)
            assert server.programs() == []


def test_restored_session_is_counted_under_the_registered_name(tmp_path):
    """A session rebuilt from the store is the same session ``create_session``
    made: its Galois key footprint lands on the same series — the name the
    program was registered under, not the graph's own name."""
    from repro.serving import SessionStore

    program = make_spine_program()  # the graph is called "spine"
    backend = MockBackend(error_model="none")
    kit = ClientKit(CompiledProgram.compile(program), backend=backend, client_id="carol")
    counted = []
    for restart in range(2):
        with EvaServer(backend=backend, session_store=SessionStore(tmp_path)) as server:
            server.register("prog", program)
            if not restart:
                server.create_session("prog", "carol", kit.export_evaluation_keys())
            serve(server, "prog", kit, [{"x": [0.5] * 8}], "t", encrypted=True, wire=True)
            counters = server.metrics_snapshot()["counters"]
            counted.append(
                {
                    counter["labels"]["program"]: counter["value"]
                    for counter in counters
                    if counter["name"] == "serving.galois.keys_bytes"
                }
            )
    created, restored = counted
    assert set(created) == {"prog"} and created["prog"] > 0
    assert restored == created
