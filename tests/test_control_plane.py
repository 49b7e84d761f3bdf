"""Tests for the cluster control plane: quotas, fair dequeue, artifact cache,
lane-width precompilation, session-store GC, and the admin wire ops."""

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.backend import MockBackend
from repro.core import compile_program
from repro.core.executor import Executor
from repro.core.serialization import messages
from repro.wire import JSON
from repro.errors import QuotaExceededError, SerializationError, ServingError
from repro.frontend import EvaProgram, input_encrypted, output
from repro.serving import (
    ArtifactCache,
    EvaServer,
    EvaTcpServer,
    FairnessPolicy,
    JobEngine,
    LaneWidthPolicy,
    ProgramRegistry,
    QuotaLedger,
    ServingClient,
    SessionStore,
    TokenBucket,
    WidthHistogram,
)


def make_poly_program(name="poly", vec_size=32):
    program = EvaProgram(name, vec_size=vec_size, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", x * x + x + 1.0, 25)
    return program


def make_rotation_program(name="rot", vec_size=64):
    """A rotation-bearing program (not slotwise, lane-lowerable)."""
    program = EvaProgram(name, vec_size=vec_size, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", x + (x << 1), 25)
    return program


class TestTokenBucket:
    def test_burst_then_throttle(self):
        bucket = TokenBucket(rate=10.0, capacity=3)
        now = time.monotonic()
        assert bucket.try_acquire(now) == 0.0
        assert bucket.try_acquire(now) == 0.0
        assert bucket.try_acquire(now) == 0.0
        retry = bucket.try_acquire(now)
        assert retry > 0.0
        # Exactly one token is missing, earned back at 10/s.
        assert retry == pytest.approx(0.1, abs=1e-6)

    def test_refills_over_time(self):
        bucket = TokenBucket(rate=10.0, capacity=1)
        now = time.monotonic()
        assert bucket.try_acquire(now) == 0.0
        assert bucket.try_acquire(now) > 0.0
        assert bucket.try_acquire(now + 0.2) == 0.0

    def test_capacity_caps_banked_tokens(self):
        bucket = TokenBucket(rate=100.0, capacity=2)
        now = time.monotonic()
        # A long idle period banks at most `capacity` tokens.
        assert bucket.try_acquire(now + 100.0) == 0.0
        assert bucket.try_acquire(now + 100.0) == 0.0
        assert bucket.try_acquire(now + 100.0) > 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, capacity=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=0)


class TestFairnessPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            FairnessPolicy(quota_rps=0.0)
        with pytest.raises(ValueError):
            FairnessPolicy(quota_rps=1.0, burst=0)
        with pytest.raises(ValueError):
            FairnessPolicy(max_inflight=0)
        with pytest.raises(ValueError):
            FairnessPolicy(weights={"a": -1.0})

    def test_enabled_and_defaults(self):
        assert not FairnessPolicy().enabled
        assert FairnessPolicy(quota_rps=5.0).enabled
        assert FairnessPolicy(max_inflight=2).enabled
        assert FairnessPolicy(quota_rps=5.0).bucket_capacity() == 10.0
        assert FairnessPolicy(quota_rps=5.0, burst=3).bucket_capacity() == 3.0
        policy = FairnessPolicy(weights={"vip": 2.0})
        assert policy.weight_of("vip") == 2.0
        assert policy.weight_of("anyone") == 1.0


class TestQuotaLedger:
    def test_disabled_ledger_admits_everything(self):
        ledger = QuotaLedger(None)
        for _ in range(1000):
            ledger.admit("anyone")
        assert not ledger.enabled

    def test_rate_quota(self):
        ledger = QuotaLedger(FairnessPolicy(quota_rps=100.0, burst=2))
        ledger.admit("alice")
        ledger.admit("alice")
        with pytest.raises(QuotaExceededError) as info:
            ledger.admit("alice")
        assert info.value.retry_after > 0.0
        # A different client has its own bucket.
        ledger.admit("bob")
        assert ledger.throttled == 1

    def test_inflight_cap_and_release(self):
        ledger = QuotaLedger(FairnessPolicy(max_inflight=2))
        ledger.admit("alice")
        ledger.admit("alice")
        assert ledger.inflight("alice") == 2
        with pytest.raises(QuotaExceededError):
            ledger.admit("alice")
        ledger.release("alice")
        ledger.admit("alice")  # a freed slot admits again
        summary = ledger.summary()
        assert summary["throttled"] == 1
        assert summary["clients_inflight"] == {"alice": 2}


class TestFairDequeue:
    def _run_engine(self, submissions, fairness=None, max_batch=1):
        """Submit jobs while the single worker is plugged; return serve order."""
        order = []
        release = threading.Event()

        def handler(jobs):
            if jobs[0].group == "plug":
                release.wait(10)
            else:
                order.extend(job.client for job in jobs)
            return [None] * len(jobs)

        engine = JobEngine(
            handler, workers=1, max_batch=max_batch, batch_window=0.0,
            fairness=fairness,
        )
        plug = engine.submit("plug", None, client="plug-client")
        time.sleep(0.05)  # let the worker pick the plug up
        futures = [
            engine.submit(group, None, client=client)
            for client, group in submissions
        ]
        release.set()
        plug.result(10)
        for future in futures:
            future.result(10)
        engine.close()
        return order

    def test_light_client_not_starved_by_greedy_backlog(self):
        """The fair-dequeue property: a client with 2 queued jobs is served
        interleaved with a client holding a 20-job backlog, not after it."""
        submissions = [("greedy", ("g", i)) for i in range(20)]
        submissions += [("light", ("l", i)) for i in range(2)]
        order = self._run_engine(submissions)
        light_positions = [i for i, client in enumerate(order) if client == "light"]
        assert len(light_positions) == 2
        # Pure FIFO would put them at positions 20 and 21; weighted fair
        # queueing alternates clients, so both land in the first handful.
        assert max(light_positions) <= 5, order

    def test_equal_weight_clients_alternate(self):
        submissions = []
        for i in range(6):
            submissions.append(("a", ("a", i)))
        for i in range(6):
            submissions.append(("b", ("b", i)))
        order = self._run_engine(submissions)
        # In every prefix the service imbalance stays within one job.
        for cut in range(1, len(order) + 1):
            served_a = order[:cut].count("a")
            served_b = order[:cut].count("b")
            assert abs(served_a - served_b) <= 1, order

    def test_weighted_client_gets_proportional_service(self):
        fairness = FairnessPolicy(weights={"heavy": 2.0})
        submissions = [("heavy", ("h", i)) for i in range(10)]
        submissions += [("normal", ("n", i)) for i in range(10)]
        order = self._run_engine(submissions, fairness=fairness)
        first_nine = order[:9]
        # Weight 2 earns ~2 of every 3 slots while both queues are busy.
        assert first_nine.count("heavy") >= 5, order

    def test_same_client_stays_fifo(self):
        submissions = [("solo", ("s", i)) for i in range(8)]
        order = self._run_engine(submissions)
        assert order == ["solo"] * 8

    def test_batching_still_drains_groups(self):
        """Same-group jobs of one client still batch under fair dequeue."""
        batches = []

        def handler(jobs):
            batches.append([job.client for job in jobs])
            time.sleep(0.02)
            return [None] * len(jobs)

        engine = JobEngine(handler, workers=1, max_batch=8, batch_window=0.0)
        futures = [engine.submit("grp", i, client="alice") for i in range(8)]
        for future in futures:
            future.result(10)
        engine.close()
        assert max(len(batch) for batch in batches) > 1


class TestEngineQuotas:
    def test_inflight_cap_at_admission(self):
        release = threading.Event()

        def handler(jobs):
            release.wait(10)
            return [None] * len(jobs)

        engine = JobEngine(
            handler, workers=1, max_batch=1,
            fairness=FairnessPolicy(max_inflight=2),
        )
        first = engine.submit("g1", None, client="alice")
        second = engine.submit("g2", None, client="alice")
        with pytest.raises(QuotaExceededError):
            engine.submit("g3", None, client="alice")
        # Other clients are unaffected by alice's cap.
        third = engine.submit("g4", None, client="bob")
        release.set()
        for future in (first, second, third):
            future.result(10)
        engine.close()
        assert engine.metrics.throttled == 1
        # Settled futures release their slots: alice can submit again.
        engine2 = JobEngine(
            lambda jobs: [None] * len(jobs), workers=1,
            fairness=FairnessPolicy(max_inflight=2),
        )
        engine2.submit("g", None, client="alice").result(10)
        engine2.submit("g", None, client="alice").result(10)
        engine2.close()

    def test_rate_quota_at_admission(self):
        engine = JobEngine(
            lambda jobs: [None] * len(jobs), workers=1,
            fairness=FairnessPolicy(quota_rps=1000.0, burst=2),
        )
        engine.submit("g", None, client="alice").result(10)
        engine.submit("g", None, client="alice").result(10)
        with pytest.raises(QuotaExceededError) as info:
            engine.submit("g", None, client="alice")
        assert info.value.retry_after > 0.0
        engine.close()


class TestServerQuotas:
    def test_server_throttles_and_recovers(self):
        server = EvaServer(
            backend=MockBackend(error_model="none"),
            batch_window=0.0,
            # A rate slow enough that the bucket cannot refill between two
            # synchronous requests: the burst is the effective budget.
            fairness=FairnessPolicy(quota_rps=0.5, burst=2),
        )
        server.register("poly", make_poly_program())
        server.request("poly", {"x": [1.0]})
        server.request("poly", {"x": [1.0]})
        with pytest.raises(QuotaExceededError):
            server.request("poly", {"x": [1.0]})
        # Another client is not collateral damage.
        server.request("poly", {"x": [1.0]}, client_id="other")
        stats = server.stats()
        assert stats["quota"]["enabled"]
        assert stats["quota"]["throttled"] >= 1
        assert stats["engine"]["throttled"] >= 1
        server.close()

    def test_pipelined_connection_hits_quota_on_the_wire(self):
        """A TCP client bursting past its quota gets 429-style replies with
        retry_after, while a second client proceeds untouched."""
        server = EvaServer(
            backend=MockBackend(error_model="none"),
            batch_window=0.0,
            fairness=FairnessPolicy(quota_rps=5.0, burst=3),
        )
        server.register("poly", make_poly_program())
        tcp = EvaTcpServer(server, port=0)
        tcp.start_background()
        host, port = tcp.address
        try:
            with ServingClient(host, port) as greedy:
                served = throttled = 0
                retry_after = None
                for _ in range(10):
                    try:
                        greedy.submit("poly", {"x": [1.0]}, client_id="greedy")
                        served += 1
                    except QuotaExceededError as exc:
                        throttled += 1
                        retry_after = exc.retry_after
                # The burst is served, the rest throttled — allowing for
                # tokens that refill while the loop's roundtrips run.
                assert served + throttled == 10
                assert served >= 3 and throttled >= 1, (served, throttled)
                assert retry_after is not None and retry_after > 0.0
                # The throttled connection itself is still usable.
                assert greedy.ping()
            with ServingClient(host, port) as light:
                outputs = light.submit("poly", {"x": [2.0]}, client_id="light")
                assert outputs["y"][0] == pytest.approx(7.0, abs=1e-6)
        finally:
            tcp.shutdown()
            server.close()


class TestArtifactCache:
    @pytest.fixture
    def graph(self):
        return make_rotation_program().graph

    def test_save_load_roundtrip(self, tmp_path, graph):
        cache = ArtifactCache(tmp_path)
        compilation = compile_program(graph)
        path = cache.save(compilation)
        assert path is not None and path.exists()
        loaded = cache.load(compilation.signature)
        assert loaded is not None
        assert loaded.parameters == compilation.parameters
        assert sorted(loaded.rotation_steps) == sorted(compilation.rotation_steps)
        assert loaded.signature == compilation.signature
        # The reloaded program computes the same thing.
        backend = MockBackend(error_model="none")
        x = np.linspace(-1, 1, graph.vec_size)
        expected = Executor(compilation, backend).execute({"x": x}).outputs["y"]
        got = Executor(loaded, backend).execute({"x": x}).outputs["y"]
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_missing_and_corrupt_records_miss(self, tmp_path, graph):
        cache = ArtifactCache(tmp_path)
        compilation = compile_program(graph)
        assert cache.load("no-such-signature") is None
        path = cache.save(compilation)
        path.write_text("{not json")
        assert cache.load(compilation.signature) is None
        assert len(cache) == 0

    def test_lane_variants_are_keyed_separately(self, tmp_path, graph):
        from repro.core.compiler import CompilerOptions

        cache = ArtifactCache(tmp_path)
        base = compile_program(graph)
        variant = compile_program(graph, options=CompilerOptions(lane_width=8))
        cache.save(base)
        cache.save(variant)
        assert len(cache) == 2
        loaded = cache.load(variant.signature, 8)
        assert loaded is not None and loaded.lane_width == 8
        assert cache.load(base.signature) is not None

    def test_registry_loads_what_a_sibling_compiled(self, tmp_path, graph):
        first = ProgramRegistry(artifacts=ArtifactCache(tmp_path))
        compiled = first.get_or_compile(graph)
        # A second registry (= another shard process) loads, not compiles.
        second_cache = ArtifactCache(tmp_path)
        second = ProgramRegistry(artifacts=second_cache)
        loaded = second.get_or_compile(graph)
        assert second_cache.hits == 1
        assert second_cache.stores == 0
        assert loaded.parameters == compiled.parameters
        summary = second.summary()
        assert summary["artifacts"]["hits"] == 1

    def test_concurrent_compile_race_converges(self, tmp_path, graph):
        """Two shards compiling the same signature concurrently: atomic
        writes mean readers never see a torn record, and everyone ends up
        with an equivalent compilation."""
        registries = [
            ProgramRegistry(artifacts=ArtifactCache(tmp_path)) for _ in range(4)
        ]
        barrier = threading.Barrier(len(registries))
        results = [None] * len(registries)
        errors = []

        def compile_worker(slot, registry):
            try:
                barrier.wait(10)
                results[slot] = registry.get_or_compile(graph)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=compile_worker, args=(i, registry))
            for i, registry in enumerate(registries)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not errors
        assert all(result is not None for result in results)
        reference = results[0]
        for result in results[1:]:
            assert result.parameters == reference.parameters
            assert sorted(result.rotation_steps) == sorted(reference.rotation_steps)
        # Exactly one record on disk, and it is loadable.
        cache = ArtifactCache(tmp_path)
        assert len(cache) == 1
        assert cache.load(reference.signature) is not None

    def test_concurrent_writes_never_tear_reads(self, tmp_path, graph):
        cache = ArtifactCache(tmp_path)
        compilation = compile_program(graph)
        signature = compilation.signature
        stop = threading.Event()
        torn = []

        def writer():
            while not stop.is_set():
                cache.save(compilation)

        def reader():
            reader_cache = ArtifactCache(tmp_path)
            while not stop.is_set():
                loaded = reader_cache.load(signature)
                if loaded is not None and loaded.signature != signature:
                    torn.append(loaded)  # pragma: no cover - would be a bug

        threads = [threading.Thread(target=writer) for _ in range(2)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        time.sleep(0.4)
        stop.set()
        for thread in threads:
            thread.join(10)
        assert not torn

    def test_prune_removes_old_artifacts(self, tmp_path, graph):
        cache = ArtifactCache(tmp_path)
        compilation = compile_program(graph)
        path = cache.save(compilation)
        old = time.time() - 1000.0
        os.utime(path, (old, old))  # artifact records age by the file's mtime
        assert cache.prune(max_age=10.0) == 1
        assert cache.load(compilation.signature) is None


class TestLaneWidthPrecompile:
    def test_histogram_records_and_ranks(self):
        hist = WidthHistogram()
        for _ in range(5):
            hist.record("sig", 16)
        for _ in range(2):
            hist.record("sig", 64)
        assert hist.record("sig", 16) == 8  # the signature's sample count
        assert hist.counts("sig") == {16: 6, 64: 2}
        assert hist.counts("other") == {}

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            LaneWidthPolicy(min_samples=0)
        with pytest.raises(ValueError):
            LaneWidthPolicy(top_widths=0)

    def test_server_prewarms_top_width(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        server = EvaServer(
            backend=MockBackend(error_model="none"),
            batch_window=0.0,
            artifact_cache=cache,
            precompile=LaneWidthPolicy(min_samples=4, top_widths=1),
        )
        program = make_rotation_program(vec_size=64)
        spec = server.register("rot", program)
        narrow = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        for _ in range(4):
            server.request("rot", {"x": narrow})
        assert server.drain_precompiles(timeout=60)
        stats = server.stats()
        assert stats["precompile"]["enabled"]
        assert [spec.signature[:12], 8] in stats["precompile"]["compiled_widths"]
        # The variant is already in the registry: the first batched round
        # finds it warm (and the artifact is published for sibling shards).
        assert server.registry.get_or_compile_variant(
            spec.program, spec.options, lane_width=8, base_signature=spec.signature
        ) is not None
        variant_records = [r for r in cache.records() if r["lane_width"] == 8]
        assert variant_records
        server.close()


class TestSessionStoreGC:
    @pytest.fixture
    def compilation(self):
        return compile_program(make_poly_program().graph)

    def _age_records(self, store, seconds):
        for path in store.root.glob("*.json"):
            record = json.loads(path.read_text())
            record["saved_at"] = time.time() - seconds
            path.write_text(json.dumps(record))

    def test_prune_removes_only_old_records(self, tmp_path, compilation):
        store = SessionStore(tmp_path)
        store.save("old", compilation, {"scheme": "mock"})
        self._age_records(store, 1000.0)
        store.save("fresh", compilation, {"scheme": "mock"})
        assert store.prune(max_age=100.0) == 1
        assert store.load("old", compilation) is None
        assert store.load("fresh", compilation) is not None

    def test_prune_without_bound_is_a_noop(self, tmp_path, compilation):
        store = SessionStore(tmp_path)
        store.save("alice", compilation, {"scheme": "mock"})
        assert store.prune() == 0
        assert store.load("alice", compilation) is not None

    def test_ttl_expires_reads(self, tmp_path, compilation):
        store = SessionStore(tmp_path, ttl=50.0)
        store.save("alice", compilation, {"scheme": "mock"})
        assert store.load("alice", compilation) is not None
        self._age_records(store, 100.0)
        # Expired records read as missing and are deleted opportunistically.
        assert store.load("alice", compilation) is None
        assert not list(store.root.glob("*.json"))

    def test_ttl_defaults_prune_bound(self, tmp_path, compilation):
        store = SessionStore(tmp_path, ttl=50.0)
        store.save("alice", compilation, {"scheme": "mock"})
        self._age_records(store, 100.0)
        assert store.prune() == 1

    def test_prune_sweeps_corrupt_old_files(self, tmp_path):
        store = SessionStore(tmp_path)
        bad = store.root / "corrupt.json"
        bad.write_text("{not json")
        old = time.time() - 1000.0
        os.utime(bad, (old, old))
        assert store.prune(max_age=100.0) == 1
        assert not bad.exists()

    def test_invalid_ttl_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SessionStore(tmp_path, ttl=0.0)


def decode_request(line):
    """Parse and validate one JSON request line, as a connection does."""
    return messages.validate_request(JSON.peek(line))


class TestAdminWireMessages:
    def test_shard_ops_roundtrip(self):
        line = messages.encode_request("drain", shard=2)
        decoded = decode_request(line)
        assert decoded["op"] == "drain" and decoded["shard"] == 2
        line = messages.encode_request("rejoin", shard=0)
        assert decode_request(line)["shard"] == 0

    def test_shard_ops_require_shard(self):
        with pytest.raises(SerializationError):
            messages.encode_request("drain")
        with pytest.raises(SerializationError):
            decode_request('{"op": "rejoin"}')
        with pytest.raises(SerializationError):
            decode_request('{"op": "drain", "shard": -1}')
        with pytest.raises(SerializationError):
            decode_request('{"op": "drain", "shard": true}')

    def test_error_encoding_carries_retry_after(self):
        reply = messages.build_error(QuotaExceededError("slow down", retry_after=0.25))
        assert not reply["ok"]
        assert reply["kind"] == "QuotaExceededError"
        assert reply["retry_after"] == pytest.approx(0.25)
        # Ordinary errors stay unchanged.
        reply = messages.build_error(ServingError("x"))
        assert "retry_after" not in reply

    def test_single_server_rejects_cluster_admin_ops(self):
        server = EvaServer(backend=MockBackend(error_model="none"))
        server.register("poly", make_poly_program())
        tcp = EvaTcpServer(server, port=0)
        tcp.start_background()
        host, port = tcp.address
        try:
            with ServingClient(host, port) as client:
                health = client.health()
                assert health[0]["status"] == "live"
                for call in (lambda: client.drain(0), lambda: client.rejoin(0)):
                    with pytest.raises(ServingError, match="cluster operation"):
                        call()
        finally:
            tcp.shutdown()
            server.close()


class TestCliFlags:
    def test_serve_and_cluster_flags_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            [
                "serve", "p.evaproto",
                "--quota-rps", "5", "--quota-burst", "3", "--max-inflight", "4",
                "--session-ttl", "3600", "--artifact-dir", "/tmp/a",
                "--health-interval", "1.5", "--precompile-widths", "2",
            ]
        )
        assert args.quota_rps == 5.0 and args.quota_burst == 3.0
        assert args.max_inflight == 4 and args.session_ttl == 3600.0
        assert args.artifact_dir == "/tmp/a"
        assert args.health_interval == 1.5 and args.precompile_widths == 2
        args = parser.parse_args(["cluster", "rejoin", "--shard", "1", "--port", "9"])
        assert args.action == "rejoin" and args.shard == 1 and args.port == 9

    def test_quota_burst_without_rate_rejected(self):
        from repro.cli import _fairness_policy, build_parser
        from repro.errors import EvaError

        args = build_parser().parse_args(
            ["serve", "p.evaproto", "--quota-burst", "8"]
        )
        with pytest.raises(EvaError, match="--quota-burst requires --quota-rps"):
            _fairness_policy(args)
