"""Tests for sharded serving: hash ring, session store, cluster, failover."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import ClientKit, CompiledProgram, execute_reference
from repro.backend import MockBackend
from repro.core import compile_program
from repro.errors import ServingError
from repro.frontend import EvaProgram, input_encrypted, output
from repro.serving import (
    BackendSpec,
    ClusterTcpServer,
    ConsistentHashRing,
    EvaCluster,
    EvaServer,
    ServingClient,
    SessionStore,
    ShardConfig,
)
from repro.serving.membership import Membership


def record_transitions(cluster):
    """Record every event the cluster's IO shell feeds its membership machine
    (wrap before ``start()``); see :func:`assert_replays`."""
    events, apply = [], cluster.members.apply

    def recording(index, event, generation=None):
        events.append((index, event, generation))
        return apply(index, event, generation)

    cluster.members.apply = recording
    return events


def assert_replays(cluster, events, *expected):
    """A fresh machine fed the recorded sequence ends in the cluster's table —
    the process test and the sans-IO properties talk about the same machine."""
    fresh = Membership(replicas=cluster.members.ring.replicas)
    for index, event, generation in events:
        try:
            fresh.apply(index, event, generation)
        except ServingError:
            pass  # refused in the recording too: a refusal changes nothing
    assert fresh.state == cluster.members.state
    assert fresh.generation == cluster.members.generation
    assert fresh.ring.nodes == cluster.ring.nodes == cluster.stats()["live"]
    fed = {event for _index, event, _generation in events}
    assert set(expected) <= fed, (expected, fed)


def make_poly_program(name="poly", vec_size=32):
    program = EvaProgram(name, vec_size=vec_size, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", x * x + x + 1.0, 25)
    return program


class TestConsistentHashRing:
    def test_same_client_always_routes_to_same_shard(self):
        ring = ConsistentHashRing((0, 1, 2, 3))
        fresh = ConsistentHashRing((0, 1, 2, 3))
        for i in range(50):
            client = f"client-{i}"
            assert ring.route(client) == ring.route(client) == fresh.route(client)

    def test_all_shards_receive_clients(self):
        ring = ConsistentHashRing((0, 1, 2, 3))
        homes = {ring.route(f"client-{i}") for i in range(200)}
        assert homes == {0, 1, 2, 3}

    def test_removal_remaps_only_the_removed_shards_clients(self):
        clients = [f"client-{i}" for i in range(500)]
        ring = ConsistentHashRing((0, 1, 2, 3))
        before = {client: ring.route(client) for client in clients}
        ring.remove(2)
        for client in clients:
            after = ring.route(client)
            if before[client] == 2:
                assert after != 2
            else:
                # Anyone not on the removed shard keeps their home (and its
                # warm caches) — the property plain modulo hashing lacks.
                assert after == before[client]

    def test_addition_remaps_a_bounded_fraction(self):
        clients = [f"client-{i}" for i in range(1000)]
        ring = ConsistentHashRing((0, 1, 2, 3))
        before = {client: ring.route(client) for client in clients}
        ring.add(4)
        moved = sum(1 for client in clients if ring.route(client) != before[client])
        # Expected K/N = 1/5 of clients move to the new shard; allow slack
        # for vnode placement variance but stay well under a full reshuffle.
        assert moved / len(clients) <= 0.35
        # ... and whoever moved, moved to the new shard, nowhere else.
        for client in clients:
            after = ring.route(client)
            if after != before[client]:
                assert after == 4

    def test_empty_ring_raises(self):
        ring = ConsistentHashRing()
        with pytest.raises(LookupError):
            ring.route("anyone")

    def test_add_remove_roundtrip_restores_mapping(self):
        clients = [f"client-{i}" for i in range(100)]
        ring = ConsistentHashRing((0, 1, 2))
        before = {client: ring.route(client) for client in clients}
        ring.add(3)
        ring.remove(3)
        assert {client: ring.route(client) for client in clients} == before


class TestBackendSpec:
    def test_builds_mock_variants(self):
        assert BackendSpec("mock", seed=3).build().error_model == "gaussian"
        exact = BackendSpec("mock-exact", seed=3, op_latency=0.001).build()
        assert exact.error_model == "none"
        assert exact.op_latency == 0.001

    def test_unknown_backend_rejected(self):
        with pytest.raises(Exception):
            BackendSpec("nope").build()

    def test_negative_op_latency_rejected(self):
        with pytest.raises(ValueError):
            MockBackend(op_latency=-1.0).create_context(
                compile_program(make_poly_program().graph).parameters
            )


class TestSessionStore:
    @pytest.fixture
    def compilation(self):
        return compile_program(make_poly_program().graph)

    def test_save_load_roundtrip(self, tmp_path, compilation):
        store = SessionStore(tmp_path)
        blob = {"scheme": "mock", "error_model": "none"}
        store.save("alice", compilation, blob, program="poly")
        assert store.load("alice", compilation) == blob
        assert len(store) == 1

    def test_missing_record_returns_none(self, tmp_path, compilation):
        store = SessionStore(tmp_path)
        assert store.load("nobody", compilation) is None

    def test_clients_are_isolated(self, tmp_path, compilation):
        store = SessionStore(tmp_path)
        store.save("alice", compilation, {"scheme": "mock", "who": "a"})
        store.save("bob", compilation, {"scheme": "mock", "who": "b"})
        assert store.load("alice", compilation)["who"] == "a"
        assert store.load("bob", compilation)["who"] == "b"

    def test_resave_merges_program_names(self, tmp_path, compilation):
        store = SessionStore(tmp_path)
        store.save("alice", compilation, {"scheme": "mock"}, program="a")
        store.save("alice", compilation, {"scheme": "mock"}, program="b")
        (record,) = store.records()
        assert record["programs"] == ["a", "b"]

    def test_corrupt_record_reads_as_missing(self, tmp_path, compilation):
        store = SessionStore(tmp_path)
        store.save("alice", compilation, {"scheme": "mock"})
        store.path_for("alice", compilation).write_text("{not json")
        assert store.load("alice", compilation) is None
        assert len(store) == 0

    def test_delete_client(self, tmp_path, compilation):
        store = SessionStore(tmp_path)
        store.save("alice", compilation, {"scheme": "mock"})
        store.save("bob", compilation, {"scheme": "mock"})
        assert store.delete("alice") == 1
        assert store.load("alice", compilation) is None
        assert store.load("bob", compilation) is not None

    def test_shared_directory_between_stores(self, tmp_path, compilation):
        """Two store objects (= two shard processes) see each other's writes."""
        writer = SessionStore(tmp_path)
        reader = SessionStore(tmp_path)
        writer.save("alice", compilation, {"scheme": "mock", "n": 1})
        assert reader.load("alice", compilation) == {"scheme": "mock", "n": 1}


class TestSessionPersistence:
    """EvaServer + SessionStore: encrypted sessions survive a restart."""

    def _encrypted_roundtrip(self, server, kit, values):
        bundle = kit.encrypt_inputs({"x": values})
        response = server.request_encrypted(
            "poly", kit.bundle_to_wire(bundle), client_id=kit.client_id
        )
        wire = response.to_wire()
        response.release()
        return kit.decrypt_outputs(kit.outputs_from_wire(wire))

    def test_session_survives_server_restart(self, tmp_path):
        program = make_poly_program()
        store = SessionStore(tmp_path)
        compiled = CompiledProgram.compile(program.graph)
        kit = ClientKit(
            compiled, backend=MockBackend(error_model="none"), client_id="alice"
        )
        expected = execute_reference(program.graph, {"x": [1.0, 2.0, 4.0, 8.0]})["y"][:4]

        first = EvaServer(
            backend=MockBackend(error_model="none"), session_store=store
        )
        first.register("poly", program)
        first.create_session("poly", "alice", kit.export_evaluation_keys())
        outputs = self._encrypted_roundtrip(first, kit, [1.0, 2.0, 4.0, 8.0])
        np.testing.assert_allclose(outputs["y"][:4], expected, atol=1e-6)
        first.close()

        # A brand-new server over the same store directory: the client does
        # NOT create a session again, yet its encrypted request is served —
        # the persisted key blob rebuilt the evaluation context lazily.
        second = EvaServer(
            backend=MockBackend(error_model="none"), session_store=store
        )
        second.register("poly", program)
        outputs = self._encrypted_roundtrip(second, kit, [1.0, 2.0, 4.0, 8.0])
        np.testing.assert_allclose(outputs["y"][:4], expected, atol=1e-6)
        assert second.sessions.summary()["client_keyed"] == 1
        second.close()

    def test_without_store_restart_loses_the_session(self):
        program = make_poly_program()
        kit = ClientKit(
            CompiledProgram.compile(program.graph),
            backend=MockBackend(error_model="none"),
            client_id="alice",
        )
        server = EvaServer(backend=MockBackend(error_model="none"))
        server.register("poly", program)
        bundle = kit.encrypt_inputs({"x": [1.0]})
        with pytest.raises(ServingError, match="not registered evaluation keys"):
            server.request_encrypted(
                "poly", kit.bundle_to_wire(bundle), client_id="alice"
            )
        server.close()

    def test_corrupt_record_degrades_to_missing_session(self, tmp_path):
        program = make_poly_program()
        store = SessionStore(tmp_path)
        kit = ClientKit(
            CompiledProgram.compile(program.graph),
            backend=MockBackend(error_model="none"),
            client_id="alice",
        )
        server = EvaServer(
            backend=MockBackend(error_model="none"), session_store=store
        )
        server.register("poly", program)
        server.create_session("poly", "alice", kit.export_evaluation_keys())
        # Corrupt the persisted blob, then restart: the restore must degrade
        # to the ordinary "create a session first" error, not crash.
        for path in Path(tmp_path).glob("*.json"):
            path.write_text("garbage")
        fresh = EvaServer(
            backend=MockBackend(error_model="none"), session_store=store
        )
        fresh.register("poly", program)
        bundle = kit.encrypt_inputs({"x": [1.0]})
        with pytest.raises(ServingError, match="not registered evaluation keys"):
            fresh.request_encrypted(
                "poly", kit.bundle_to_wire(bundle), client_id="alice"
            )
        server.close()
        fresh.close()

    def test_create_session_persists_blob(self, tmp_path):
        program = make_poly_program()
        store = SessionStore(tmp_path)
        kit = ClientKit(
            CompiledProgram.compile(program.graph),
            backend=MockBackend(error_model="none"),
            client_id="alice",
        )
        server = EvaServer(
            backend=MockBackend(error_model="none"), session_store=store
        )
        server.register("poly", program)
        assert len(store) == 0
        server.create_session("poly", "alice", kit.export_evaluation_keys())
        (record,) = store.records()
        assert record["client_id"] == "alice"
        assert record["programs"] == ["poly"]
        assert server.stats()["session_store"]["records"] == 1
        server.close()


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
class TestClusterEndToEnd:
    """One 2-shard cluster exercised end to end, including a shard kill."""

    def test_cluster_serves_routes_and_survives_shard_loss(self, tmp_path):
        program = make_poly_program()
        expected = execute_reference(program.graph, {"x": [1.0, 2.0]})["y"][:2]
        cluster = EvaCluster(
            shards=2,
            backend=BackendSpec("mock-exact", seed=7),
            session_dir=tmp_path,
            batch_window=0.0,
        )
        cluster.register("poly", program)
        events = record_transitions(cluster)
        cluster.start()
        router = None
        try:
            # Plaintext requests route per client and match the reference.
            for client_id in ("alice", "bob"):
                outputs = cluster.request(
                    "poly", {"x": [1.0, 2.0]}, client_id=client_id
                )
                np.testing.assert_allclose(outputs["y"][:2], expected, atol=1e-6)
                assert cluster.shard_for(client_id) == cluster.shard_for(client_id)

            # The router speaks the same wire protocol, plus `route`.
            router = ClusterTcpServer(cluster, port=0)
            router.start_background()
            host, port = router.address
            with ServingClient(host, port) as client:
                assert client.ping()
                assert client.programs() == ["poly"]
                route = client.route("alice")
                assert route["shard"] == cluster.shard_for("alice")
                assert route["pid"] == cluster.shard_infos()[route["shard"]]["pid"]
                outputs = client.submit("poly", {"x": [1.0, 2.0]}, client_id="alice")
                np.testing.assert_allclose(outputs["y"][:2], expected, atol=1e-6)
                stats = client.stats()
                assert stats["live"] == [0, 1]

            # Encrypted session for alice (keys stay client-side).
            kit = ClientKit(
                CompiledProgram.compile(program.graph),
                backend=MockBackend(error_model="none"),
                client_id="alice",
            )
            session = cluster.create_session("poly", kit)
            assert session["program"] == "poly"
            outputs = cluster.request_encrypted("poly", kit, {"x": [1.0, 2.0]})
            np.testing.assert_allclose(outputs["y"][:2], expected, atol=1e-6)

            # Kill alice's shard. Her next encrypted request must reroute to
            # the surviving shard, which rebuilds her session from the
            # persisted store — no new create_session.
            victim = cluster.shard_for("alice")
            cluster.kill_shard(victim)
            outputs = cluster.request_encrypted("poly", kit, {"x": [1.0, 2.0]})
            np.testing.assert_allclose(outputs["y"][:2], expected, atol=1e-6)
            survivor = cluster.shard_for("alice")
            assert survivor != victim
            stats = cluster.stats()
            assert stats["live"] == [survivor]
            assert stats["dead"] == [victim]
            # The survivor's session cache now holds the restored session.
            per_shard = stats["per_shard"][str(survivor)]
            assert per_shard["sessions"]["client_keyed"] >= 1

            # Plaintext clients keep working after the loss too.
            outputs = cluster.request("poly", {"x": [1.0, 2.0]}, client_id="bob")
            np.testing.assert_allclose(outputs["y"][:2], expected, atol=1e-6)
            assert_replays(cluster, events, "join", "process_died")
        finally:
            if router is not None:
                router.shutdown()
            cluster.close()

    def test_kill_then_rejoin_restores_membership(self, tmp_path):
        """The full chaos loop in-process: kill -> rejoin -> same home serves."""
        program = make_poly_program()
        expected = execute_reference(program.graph, {"x": [1.0, 2.0]})["y"][:2]
        cluster = EvaCluster(
            shards=2,
            backend=BackendSpec("mock-exact", seed=7),
            session_dir=tmp_path,
            batch_window=0.0,
        )
        cluster.register("poly", program)
        events = record_transitions(cluster)
        cluster.start()
        try:
            outputs = cluster.request("poly", {"x": [1.0, 2.0]}, client_id="alice")
            np.testing.assert_allclose(outputs["y"][:2], expected, atol=1e-6)
            victim = cluster.shard_for("alice")
            old_pid = cluster.shard_infos()[victim]["pid"]
            cluster.kill_shard(victim)
            statuses = {h["index"]: h["status"] for h in cluster.check_health()}
            assert statuses[victim] == "dead"

            info = cluster.rejoin_shard(victim)
            assert info["respawned"] and info["pid"] != old_pid
            # Consistent hashing puts alice right back on her old home, and
            # the respawned shard serves her (cached connections to the dead
            # process were invalidated by the generation bump).
            assert cluster.shard_for("alice") == victim
            outputs = cluster.request("poly", {"x": [1.0, 2.0]}, client_id="alice")
            np.testing.assert_allclose(outputs["y"][:2], expected, atol=1e-6)
            stats = cluster.stats()
            assert stats["live"] == [0, 1] and stats["dead"] == []
            statuses = {h["index"]: h["status"] for h in cluster.check_health()}
            assert statuses == {0: "live", 1: "live"}
            # Rejoining a live in-ring shard is a no-op, not an error.
            assert not cluster.rejoin_shard(victim)["respawned"]
            assert cluster.members.generation[victim] == 1
            assert_replays(
                cluster, events, "process_died", "rejoin_respawned", "rejoin", "probe_ok"
            )
        finally:
            cluster.close()

    def test_drain_reroutes_then_rejoin_without_respawn(self):
        program = make_poly_program()
        cluster = EvaCluster(
            shards=2, backend=BackendSpec("mock-exact", seed=7), batch_window=0.0
        )
        cluster.register("poly", program)
        events = record_transitions(cluster)
        cluster.start()
        try:
            home = cluster.shard_for("alice")
            info = cluster.drain_shard(home)
            assert info["status"] == "drained"
            # Drained: out of the ring (clients reroute) but still alive.
            assert cluster.shard_for("alice") != home
            statuses = {h["index"]: h["status"] for h in cluster.check_health()}
            assert statuses[home] == "drained"
            cluster.request("poly", {"x": [1.0]}, client_id="alice")
            # The last in-ring shard cannot be drained: that would be an
            # outage, not maintenance.
            survivor = cluster.shard_for("alice")
            with pytest.raises(ServingError, match="last shard"):
                cluster.drain_shard(survivor)
            info = cluster.rejoin_shard(home)
            assert not info["respawned"]
            assert cluster.shard_for("alice") == home
            cluster.request("poly", {"x": [1.0]}, client_id="alice")
            with pytest.raises(ServingError, match="no shard"):
                cluster.drain_shard(99)
            assert_replays(cluster, events, "drain", "rejoin", "probe_ok")
        finally:
            cluster.close()

    def test_router_admin_ops_and_quota_enforcement(self, tmp_path):
        """health/drain/rejoin over the wire, plus router-level 429s."""
        from repro.errors import QuotaExceededError
        from repro.serving import FairnessPolicy

        program = make_poly_program()
        cluster = EvaCluster(
            shards=2,
            backend=BackendSpec("mock-exact", seed=7),
            session_dir=tmp_path,
            batch_window=0.0,
            fairness=FairnessPolicy(quota_rps=2.0, burst=3),
        )
        cluster.register("poly", program)
        cluster.start()
        router = None
        try:
            router = ClusterTcpServer(cluster, port=0)
            router.start_background()
            host, port = router.address
            with ServingClient(host, port) as client:
                # A pipelined burst past the quota: the router answers 429
                # with retry_after before the request costs a shard anything.
                served = throttled = 0
                retry_after = None
                for _ in range(8):
                    try:
                        client.submit("poly", {"x": [1.0]}, client_id="greedy")
                        served += 1
                    except QuotaExceededError as exc:
                        throttled += 1
                        retry_after = exc.retry_after
                # At least the burst is served; the rest is throttled modulo
                # whatever tokens refill while the loop runs (first-compile
                # roundtrips on a slow machine can fund an extra token).
                assert served + throttled == 8
                assert served >= 3 and throttled >= 1, (served, throttled)
                assert retry_after is not None and retry_after > 0.0
                # A different client proceeds while greedy is throttled.
                client.submit("poly", {"x": [1.0]}, client_id="light")

                victim = client.route("light")["shard"]
                cluster.kill_shard(victim)
                health = {h["index"]: h["status"] for h in client.health()}
                assert health[victim] == "dead"
                rejoined = client.rejoin(victim)
                assert rejoined["respawned"]
                health = {h["index"]: h["status"] for h in client.health()}
                assert set(health.values()) == {"live"}
                client.submit("poly", {"x": [1.0]}, client_id="light")
                drained = client.drain(victim)
                assert drained["status"] == "drained"
                assert client.rejoin(victim)["status"] == "rejoined"
        finally:
            if router is not None:
                router.shutdown()
            cluster.close()

    def test_drained_shard_that_dies_is_reported_dead(self):
        cluster = EvaCluster(
            shards=2, backend=BackendSpec("mock-exact", seed=7), batch_window=0.0
        )
        cluster.register("poly", make_poly_program())
        events = record_transitions(cluster)
        cluster.start()
        try:
            cluster.drain_shard(0)
            # The parked process crashes: health must reclassify it as dead
            # (and stats' drained/dead lists must agree), not keep reporting
            # a healthy-looking parked shard.
            cluster._handles[0].process.kill()
            cluster._handles[0].process.join(10)
            statuses = {h["index"]: h["status"] for h in cluster.check_health()}
            assert statuses[0] == "dead"
            stats = cluster.stats()
            assert 0 in stats["dead"] and 0 not in stats["drained"]
            # ... and rejoin still brings it back (respawned).
            assert cluster.rejoin_shard(0)["respawned"]
            assert_replays(cluster, events, "drain", "process_died", "rejoin_respawned")
        finally:
            cluster.close()

    def test_session_ops_count_against_quota(self, tmp_path):
        """create_session is the heaviest op; it must not bypass admission."""
        from repro.errors import QuotaExceededError
        from repro.serving import FairnessPolicy

        program = make_poly_program()
        server = EvaServer(
            backend=MockBackend(error_model="none"),
            batch_window=0.0,
            fairness=FairnessPolicy(quota_rps=0.5, burst=2),
        )
        server.register("poly", program)
        kit = ClientKit(
            CompiledProgram.compile(program.graph),
            backend=MockBackend(error_model="none"),
            client_id="alice",
        )
        keys = kit.export_evaluation_keys()
        server.create_session("poly", "alice", keys)
        server.create_session("poly", "alice", keys)
        with pytest.raises(QuotaExceededError):
            server.create_session("poly", "alice", keys)
        server.close()

    def test_cluster_shares_artifact_directory(self, tmp_path):
        """Shards publish compilations into the shared artifact cache."""
        from repro.serving import ArtifactCache

        artifact_dir = tmp_path / "artifacts"
        program = make_poly_program()
        cluster = EvaCluster(
            shards=2,
            backend=BackendSpec("mock-exact", seed=7),
            batch_window=0.0,
            artifact_dir=str(artifact_dir),
        )
        cluster.register("poly", program)
        cluster.start()
        try:
            # Hit both shards (different clients) so each resolves the program.
            clients = ["alice", "bob", "carol", "dave"]
            for client_id in clients:
                cluster.request("poly", {"x": [1.0]}, client_id=client_id)
            cache = ArtifactCache(artifact_dir)
            records = cache.records()
            # One program, one signature: however many shards compiled, the
            # cache converged on a single record (atomic last-writer-wins).
            assert len(records) == 1
            assert records[0]["lane_width"] is None
        finally:
            cluster.close()

    def test_register_after_start_rejected(self):
        cluster = EvaCluster(shards=1, backend=BackendSpec("mock-exact"))
        cluster.register("poly", make_poly_program())
        cluster.start()
        try:
            with pytest.raises(ServingError, match="before the cluster starts"):
                cluster.register("other", make_poly_program())
            with pytest.raises(ServingError):
                cluster.start()
        finally:
            cluster.close()

    def test_all_shards_dead_raises(self):
        cluster = EvaCluster(
            shards=1, backend=BackendSpec("mock-exact"), retries=1
        )
        cluster.register("poly", make_poly_program())
        cluster.start()
        try:
            cluster.kill_shard(0)
            with pytest.raises(ServingError, match="no live shards"):
                cluster.request("poly", {"x": [1.0]}, client_id="alice")
        finally:
            cluster.close()


class TestRecipe:
    """``ShardConfig``: one validated description of a serving process."""

    CONFIG = (
        '[cluster]\nshards = 1\nbackend = "mock-exact"\nbatch_window = 0\n\n'
        "[cluster.fairness]\nquota_rps = 50.0\nburst = 100\n"
        "[cluster.fairness.weights]\nalice = 2.0\n"
        '[cluster.fairness.slo_classes]\nalice = "tight"\n'
        "[cluster.fairness.class_deadlines_ms]\ntight = 5000.0\n"
    )

    def test_config_file_tables_are_coerced_before_any_process_exists(self, tmp_path):
        """`[cluster] backend = "mock-exact"` used to die inside the spawned
        shard (`'str' object has no attribute 'build'`)."""
        from repro import tomlcompat
        from repro.serving import FairnessPolicy, load_cluster_config

        assert tomlcompat._parse_toml_minimal(self.CONFIG) == tomlcompat.loads(self.CONFIG)
        config = tmp_path / "cluster.toml"
        config.write_text(self.CONFIG)
        cluster = EvaCluster(**load_cluster_config(config)["cluster"])
        assert cluster.recipe.backend == BackendSpec("mock-exact")
        assert cluster.recipe.batch_window == 0.0 and isinstance(cluster.recipe.batch_window, float)
        assert cluster.recipe.fairness == FairnessPolicy(
            quota_rps=50.0, burst=100, weights={"alice": 2.0},
            slo_classes={"alice": "tight"}, class_deadlines_ms={"tight": 5000.0},
        )  # fmt: skip
        program = make_poly_program()
        cluster.register("poly", program)
        cluster.start()
        try:
            outputs = cluster.request("poly", {"x": [1.0, 2.0]}, client_id="alice")
            expected = execute_reference(program.graph, {"x": [1.0, 2.0]})["y"][:2]
            np.testing.assert_allclose(outputs["y"][:2], expected, atol=1e-6)
            assert cluster.stats()["fairness"] is True
        finally:
            cluster.close()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("backend", 7),
            ("backend", "mock-exat"),
            ("backend", {"name": "mock", "sed": 1}),
            ("fairness", {"quota_rps": -1.0}),
            ("fairness", "strict"),
            ("workers", "two"),
            ("workers", True),
            ("batch_window", "5ms"),
            ("session_dir", 12),
            ("log_json", "yes"),
            ("precompile_widths", 1.5),
        ],
    )
    def test_a_bad_value_fails_in_the_parent_naming_the_key(self, key, value):
        import multiprocessing

        children = set(multiprocessing.active_children())
        with pytest.raises(ServingError, match=key):
            EvaCluster(shards=1, **{key: value})
        assert set(multiprocessing.active_children()) == children
        with pytest.raises(TypeError, match="no_such_key"):  # "bad [cluster] config key"
            EvaCluster(shards=1, no_such_key=1)

    def test_table_forms_and_paths(self, tmp_path):
        recipe = ShardConfig(
            backend={"name": "mock", "seed": 3, "op_latency": 0.001},
            session_dir=tmp_path, artifact_dir=str(tmp_path), session_ttl=60, batch_window=1,
        )  # fmt: skip
        assert recipe.backend == BackendSpec("mock", seed=3, op_latency=0.001)
        assert recipe.session_dir == recipe.artifact_dir == str(tmp_path)
        assert recipe.session_ttl == 60.0 and recipe.batch_window == 1.0
        assert ShardConfig().backend == BackendSpec() and ShardConfig().fairness is None

    def test_precompile_widths_reaches_every_shard(self):
        """The knob `serve` documented as "single-process serve only"."""
        cluster = EvaCluster(
            shards=2, backend="mock-exact", batch_window=0.0, precompile_widths=2
        )
        cluster.register("poly", make_poly_program())
        cluster.start()
        try:
            per_shard = cluster.stats()["per_shard"]
            assert sorted(per_shard) == ["0", "1"]
            assert all(stats["precompile"]["enabled"] is True for stats in per_shard.values())
        finally:
            cluster.close()


class TestClusterCli:
    def test_serve_shards_session_survives_shard_kill(self, tmp_path):
        """`repro.cli serve --shards 2 --session-dir` + kill = session survives.

        The same scenario the CI cluster-smoke job runs: two clients with
        encrypted sessions, one shard SIGKILLed, the rerouted client resumes
        (no new session) against the persisted store.
        """
        import repro
        from repro.core.serialization import save

        program = make_poly_program()
        path = tmp_path / "poly.evaproto"
        save(program.graph, path)
        session_dir = tmp_path / "sessions"
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
                "--shards",
                "2",
                "--session-dir",
                str(session_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = json.loads(process.stdout.readline())
            assert banner["programs"] == ["poly"]
            assert len(banner["shards"]) == 2
            host, port = banner["serving"].rsplit(":", 1)
            expected = execute_reference(program.graph, {"x": [1.0, 2.0]})["y"][:2]

            # Compile with the exact options the serve CLI builds from its
            # argparse defaults (float max_rescale_bits!), as `repro.cli
            # submit --encrypt` does — signatures must match byte for byte.
            from repro.core import CompilerOptions

            cli_options = CompilerOptions(
                policy="eva", max_rescale_bits=60.0, security_level=128
            )
            kits = {
                client_id: ClientKit(
                    CompiledProgram.compile(program.graph, options=cli_options),
                    backend=MockBackend(error_model="none"),
                    client_id=client_id,
                )
                for client_id in ("alice", "bob")
            }
            with ServingClient(host, int(port)) as client:
                for client_id, kit in kits.items():
                    client.create_session("poly", kit)
                    outputs = client.submit_encrypted("poly", kit, {"x": [1.0, 2.0]})
                    np.testing.assert_allclose(outputs["y"][:2], expected, atol=1e-6)
                victim = client.route("alice")
                os.kill(victim["pid"], signal.SIGKILL)
                time.sleep(0.2)
                # Resume WITHOUT create_session: the rerouted shard restores
                # alice's session from the shared --session-dir store.
                outputs = client.submit_encrypted(
                    "poly", kits["alice"], {"x": [1.0, 2.0]}
                )
                np.testing.assert_allclose(outputs["y"][:2], expected, atol=1e-6)
                rerouted = client.route("alice")
                assert rerouted["pid"] != victim["pid"]
                # Bob keeps working too (restored or still attached).
                outputs = client.submit_encrypted(
                    "poly", kits["bob"], {"x": [1.0, 2.0]}
                )
                np.testing.assert_allclose(outputs["y"][:2], expected, atol=1e-6)
            assert session_dir.exists() and any(session_dir.glob("*.json"))

            # The CLI resume flag rides the same restore path: no session op,
            # straight to an encrypted submit against the surviving shard.
            inputs_path = tmp_path / "inputs.json"
            inputs_path.write_text(json.dumps({"x": [1.0, 2.0]}))
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "submit",
                    "poly",
                    "--inputs",
                    str(inputs_path),
                    "--port",
                    port,
                    "--encrypt",
                    "--resume",
                    "--program-file",
                    str(path),
                    "--backend",
                    "mock-exact",
                    "--client",
                    "alice",
                ],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            assert result.returncode == 0, result.stderr
            payload = json.loads(result.stdout)
            np.testing.assert_allclose(
                payload["outputs"]["y"][:2], expected, atol=1e-6
            )
        finally:
            process.terminate()
            process.wait(20)
        # SIGTERM takes the Ctrl-C path: the router exits cleanly and takes
        # every shard it spawned (the SIGKILLed one is long gone) with it.
        assert process.returncode == 0
        for shard in banner["shards"]:
            with pytest.raises(ProcessLookupError):
                os.kill(shard["pid"], 0)


class TestClusterTelemetry:
    """The telemetry plane across shard processes: aggregation, traces, slow."""

    def _make_cluster(self, tmp_path=None, **kwargs):
        cluster = EvaCluster(
            shards=2,
            backend=BackendSpec("mock-exact", seed=7),
            session_dir=tmp_path,
            batch_window=0.0,
            **kwargs,
        )
        cluster.register("poly", make_poly_program())
        cluster.start()
        return cluster

    def _two_homed_clients(self, cluster):
        """One client id homed on each of the two shards."""
        chosen = {}
        for i in range(64):
            client_id = f"probe-{i}"
            chosen.setdefault(cluster.shard_for(client_id), client_id)
            if len(chosen) == 2:
                break
        assert len(chosen) == 2, "could not find clients covering both shards"
        return [chosen[index] for index in sorted(chosen)]

    def test_metrics_aggregate_across_shards_with_correct_bucket_math(self):
        from repro.serving.telemetry import percentile_from_buckets

        cluster = self._make_cluster()
        try:
            clients = self._two_homed_clients(cluster)
            for client_id in clients:
                for _ in range(3):
                    cluster.request("poly", {"x": [1.0, 2.0]}, client_id=client_id)
            snapshot = cluster.metrics_snapshot()
            counters = {
                (c["name"], c["labels"].get("shard"), c["labels"].get("client")): c[
                    "value"
                ]
                for c in snapshot["counters"]
            }
            # Per-shard series survive aggregation and the unlabeled
            # aggregate sums them.
            for shard, client_id in enumerate(clients):
                assert (
                    counters[("serving.requests.submitted", str(shard), client_id)]
                    == 3
                )
                assert (
                    counters[("serving.requests.submitted", None, client_id)] == 3
                )
            for name in ("serving.queue.seconds", "serving.execute.seconds"):
                per_shard = [
                    h
                    for h in snapshot["histograms"]
                    if h["name"] == name and "shard" in h["labels"]
                ]
                aggregate = [
                    h
                    for h in snapshot["histograms"]
                    if h["name"] == name and "shard" not in h["labels"]
                ]
                assert {h["labels"]["shard"] for h in per_shard} == {"0", "1"}
                assert sum(h["count"] for h in per_shard) == 6
                # One aggregate series per (client, program) label set; the
                # two clients' series together cover all six requests.
                assert sum(h["count"] for h in aggregate) == 6
                for agg in aggregate:
                    assert agg["count"] == 3
                    # The reported p95 must be exactly the bucket math over
                    # the merged buckets — recompute it and compare.
                    bounds = [b for b, _ in agg["buckets"] if b is not None]
                    counts = [c for b, c in agg["buckets"] if b is not None]
                    counts.append(
                        next((c for b, c in agg["buckets"] if b is None), 0)
                    )
                    assert agg["p95"] == pytest.approx(
                        percentile_from_buckets(
                            tuple(bounds), counts, agg["count"], 95
                        ),
                        rel=1e-9,
                    )
        finally:
            cluster.close()

    def test_traced_request_survives_failover_with_one_trace_id(self, tmp_path):
        cluster = self._make_cluster(tmp_path)
        try:
            victim_client = self._two_homed_clients(cluster)[0]
            victim = cluster.shard_for(victim_client)
            cluster.kill_shard(victim)
            # Minted before the retry loop: the TransportError failover must
            # not change the id, and the successful attempt's spans land on
            # the survivor under it.
            cluster.request(
                "poly", {"x": [1.0, 2.0]}, client_id=victim_client, trace=True
            )
            trace_id = cluster.last_trace_id
            assert trace_id is not None
            assert cluster.shard_for(victim_client) != victim
            trace = cluster.trace_of(trace_id)
            assert trace is not None and trace["trace_id"] == trace_id
            stages = {span["stage"] for span in trace["spans"]}
            assert "execute" in stages
            survivor = cluster.shard_for(victim_client)
            assert all(
                span["shard"] == survivor
                for span in trace["spans"]
                if "shard" in span
            )
        finally:
            cluster.close()

    def test_restored_session_trace_includes_session_restore_span(self, tmp_path):
        cluster = self._make_cluster(tmp_path)
        try:
            program = make_poly_program()
            kit = ClientKit(
                CompiledProgram.compile(program.graph),
                backend=MockBackend(error_model="none"),
                client_id="alice",
            )
            cluster.create_session("poly", kit)
            cluster.request_encrypted("poly", kit, {"x": [1.0, 2.0]})
            victim = cluster.shard_for("alice")
            cluster.kill_shard(victim)
            # The rerouted shard restores alice's session from the persisted
            # store; the trace must show that stage.
            cluster.request_encrypted(
                "poly", kit, {"x": [1.0, 2.0]}, trace=True
            )
            trace = cluster.trace_of(cluster.last_trace_id)
            assert trace is not None
            stages = {span["stage"] for span in trace["spans"]}
            assert "session_restore" in stages, stages
            assert "execute" in stages
        finally:
            cluster.close()

    def test_router_quota_rejection_echoes_trace_id(self):
        from repro.errors import QuotaExceededError
        from repro.serving import FairnessPolicy

        cluster = self._make_cluster(
            fairness=FairnessPolicy(quota_rps=0.001, burst=1.0)
        )
        router = None
        try:
            router = ClusterTcpServer(cluster, port=0)
            router.start_background()
            host, port = router.address
            with ServingClient(host, port) as client:
                client.submit(
                    "poly", {"x": [1.0, 2.0]}, client_id="alice", trace=True
                )
                with pytest.raises(QuotaExceededError) as info:
                    client.submit(
                        "poly", {"x": [1.0, 2.0]}, client_id="alice", trace=True
                    )
            # The 429 happened at the router, before any shard was touched —
            # the reply still carries the client-minted trace id.
            assert info.value.trace_id is not None
        finally:
            if router is not None:
                router.shutdown()
            cluster.close()

    def test_router_merges_shard_trace_into_echo(self):
        # The router reads its slow threshold from the cluster's recipe.
        cluster = self._make_cluster(slow_threshold=0.0)
        router = None
        try:
            router = ClusterTcpServer(cluster, port=0)
            router.start_background()
            host, port = router.address
            with ServingClient(host, port) as client:
                client.submit(
                    "poly", {"x": [1.0, 2.0]}, client_id="alice", trace=True
                )
                trace = client.last_trace
                assert trace is not None
                stages = {span["stage"] for span in trace["spans"]}
                assert "router_forward" in stages
                assert "execute" in stages
                # The router-side slow ring (threshold 0) caught it too, and
                # untraced requests get a router-minted id there as well.
                client.submit("poly", {"x": [1.0, 2.0]}, client_id="alice")
                assert client.last_trace is None
                slow = client.slow()
                assert len(slow) >= 2
                assert all(record.get("trace_id") for record in slow)
                fetched = client.trace_of(trace["trace_id"])
                assert fetched is not None
                assert "router_forward" in {
                    span["stage"] for span in fetched["spans"]
                }
        finally:
            if router is not None:
                router.shutdown()
            cluster.close()


def start_remote_shard(program=None, name="poly"):
    """An in-process stand-in for `repro.cli serve` on another host."""
    from repro.serving import EvaTcpServer

    eva = EvaServer(backend=MockBackend(error_model="none", seed=7), batch_window=0.0)
    if program is not None:
        eva.register(name, program)
    tcp = EvaTcpServer(eva, port=0)
    tcp.start_background()
    return eva, tcp


class TestRemoteShards:
    """Remote endpoints on the ring: attach, drain/rejoin, wire join."""

    def _cluster(self, program, **kwargs):
        cluster = EvaCluster(
            shards=1, backend=BackendSpec("mock-exact", seed=7), batch_window=0.0, **kwargs
        )
        cluster.register("poly", program)
        cluster.start()
        return cluster

    def _client_homed_on(self, cluster, shard):
        for i in range(256):
            client_id = f"homing-{i}"
            if cluster.shard_for(client_id) == shard:
                return client_id
        raise AssertionError(f"no client routed to shard {shard}")

    def test_attach_serves_drains_and_rejoins_without_respawn(self, tmp_path):
        """The chaos loop for a shard the router cannot respawn."""
        program = make_poly_program()
        expected = execute_reference(program.graph, {"x": [1.0, 2.0]})["y"][:2]
        eva, tcp = start_remote_shard(program)
        cluster = self._cluster(program)
        try:
            host, port = tcp.address
            info = cluster.attach_shard(host, port)
            assert info == {
                "shard": 1, "status": "joined", "mode": "remote",
                "host": host, "port": port,
            }
            assert cluster.stats()["live"] == [0, 1]
            statuses = {h["index"]: h for h in cluster.check_health()}
            assert statuses[1]["status"] == "live"
            assert statuses[1]["mode"] == "remote" and statuses[1]["pid"] is None

            client_id = self._client_homed_on(cluster, 1)
            outputs = cluster.request("poly", {"x": [1.0, 2.0]}, client_id=client_id)
            np.testing.assert_allclose(outputs["y"][:2], expected, atol=1e-6)
            # The request was actually served by the remote endpoint.
            assert eva.stats()["engine"]["completed"] >= 1

            # Remote shards have no process to kill; the graceful ops work.
            with pytest.raises(ServingError, match="remote"):
                cluster.kill_shard(1)
            assert cluster.drain_shard(1)["status"] == "drained"
            assert cluster.shard_for(client_id) == 0
            cluster.request("poly", {"x": [1.0, 2.0]}, client_id=client_id)
            info = cluster.rejoin_shard(1)
            assert not info["respawned"] and info["mode"] == "remote"
            assert cluster.shard_for(client_id) == 1
            cluster.request("poly", {"x": [1.0, 2.0]}, client_id=client_id)

            # Re-attaching a known endpoint is the remote rejoin, not a new
            # shard; a brand-new endpoint gets the next free index.
            cluster.drain_shard(1)
            assert cluster.attach_shard(host, port)["shard"] == 1
            assert cluster.stats()["live"] == [0, 1]

            # When the endpoint goes away the health loop demotes it and its
            # clients fail over to the surviving local shard.  (A real process
            # death severs established sockets; the in-process stand-in's
            # daemon handler threads outlive shutdown(), so drop the cached
            # probe connection to emulate the broken link.)
            tcp.shutdown()
            tcp.server_close()
            eva.close()
            cluster._drop_connection(cluster._probe_clients, 1)
            statuses = {h["index"]: h["status"] for h in cluster.check_health()}
            assert statuses[1] == "dead"
            outputs = cluster.request("poly", {"x": [1.0, 2.0]}, client_id=client_id)
            np.testing.assert_allclose(outputs["y"][:2], expected, atol=1e-6)
            # ... and rejoin refuses until the endpoint answers again.
            with pytest.raises(ServingError, match="not responding"):
                cluster.rejoin_shard(1)
        finally:
            cluster.close()

    def test_attach_rejects_mismatched_program_set(self):
        program = make_poly_program()
        other = make_poly_program(name="other")
        eva, tcp = start_remote_shard(other, name="other")
        cluster = self._cluster(program)
        try:
            host, port = tcp.address
            with pytest.raises(ServingError, match="missing \\['poly'\\]"):
                cluster.attach_shard(host, port)
            with pytest.raises(ServingError, match="cannot attach"):
                cluster.attach_shard("127.0.0.1", 1)  # nothing listens there
            assert cluster.stats()["live"] == [0]
        finally:
            cluster.close()
            tcp.shutdown()
            tcp.server_close()
            eva.close()

    def test_join_over_the_wire_and_config_file(self, tmp_path):
        """`cluster join` wire op and [[remote]] config attach the same way."""
        from repro.serving import load_cluster_config

        program = make_poly_program()
        eva, tcp = start_remote_shard(program)
        host, port = tcp.address
        config = tmp_path / "cluster.toml"
        config.write_text(
            "[cluster]\nshards = 1\n\n"
            f'[[remote]]\nhost = "{host}"\nport = {port}\n'
        )
        parsed = load_cluster_config(config)
        assert parsed["cluster"] == {"shards": 1}
        assert parsed["remote"] == [(host, port)]
        assert parsed["scale"] is None

        cluster = EvaCluster(
            backend=BackendSpec("mock-exact", seed=7),
            batch_window=0.0,
            **parsed["cluster"],
            remote_shards=parsed["remote"],
        )
        cluster.register("poly", program)
        cluster.start()
        router = None
        try:
            # The [[remote]] endpoint joined during start().
            assert cluster.stats()["live"] == [0, 1]

            # A second endpoint joins live through the router wire op.
            eva2, tcp2 = start_remote_shard(program)
            try:
                router = ClusterTcpServer(cluster, port=0)
                router.start_background()
                rhost, rport = router.address
                with ServingClient(rhost, rport) as client:
                    info = client.join(*tcp2.address)
                    assert info["shard"] == 2 and info["mode"] == "remote"
                    assert client.stats()["live"] == [0, 1, 2]
                    client.submit("poly", {"x": [1.0, 2.0]}, client_id="alice")
            finally:
                tcp2.shutdown()
                tcp2.server_close()
                eva2.close()
        finally:
            if router is not None:
                router.shutdown()
            cluster.close()
            tcp.shutdown()
            tcp.server_close()
            eva.close()

    def test_health_probe_reuses_its_connection(self):
        """Steady-state probing must not open a connection per probe."""
        program = make_poly_program()
        eva, tcp = start_remote_shard(program)
        cluster = self._cluster(program)
        try:
            cluster.attach_shard(*tcp.address)
            cluster.check_health()
            opened = tcp._conn_seq
            for _ in range(5):
                cluster.check_health()
            # The attach probe and the first health probe may each have
            # connected once; five more probe rounds add none.
            assert tcp._conn_seq == opened
        finally:
            cluster.close()
            tcp.shutdown()
            tcp.server_close()
            eva.close()


class TestAutoscaling:
    """ScalePolicy hysteresis: watermark streaks, cooldown, no flapping."""

    def _policy(self, **overrides):
        from repro.serving import ScalePolicy

        fields = dict(
            high_queue_depth=10.0,
            low_queue_depth=1.0,
            min_shards=1,
            max_shards=3,
            observations=2,
            cooldown=3600.0,
        )
        fields.update(overrides)
        return ScalePolicy(**fields)

    def test_scale_up_down_rejoin_with_hysteresis_and_cooldown(self):
        cluster = EvaCluster(
            shards=2,
            backend=BackendSpec("mock-exact", seed=7),
            batch_window=0.0,
            scale_policy=self._policy(),
        )
        cluster.register("poly", make_poly_program())
        cluster.start()
        try:
            clock = [0.0]

            def tick(queue_depth):
                clock[0] += 1.0
                return cluster.scale_tick(queue_depth=queue_depth, now=clock[0])

            # One high observation is not enough; a mid-band observation
            # resets the streak (the no-flap property).
            assert tick(50) is None
            assert tick(5) is None
            assert tick(50) is None
            action = tick(50)
            assert action["action"] == "up" and action["reason"] == "spawn"
            assert action["shard"] == 2 and cluster.stats()["live"] == [0, 1, 2]

            # Cooldown gates the next action even with a sustained breach.
            assert tick(50) is None
            assert tick(50) is None
            clock[0] += 3600.0  # the cooldown passes

            # Low-watermark streak drains the newest local shard (parked,
            # not killed)...
            assert tick(0) is None
            action = tick(0)
            assert action["action"] == "down" and action["shard"] == 2
            assert cluster.stats()["drained"] == [2]
            clock[0] += 3600.0

            # ... so the next scale-up is a cheap rejoin, not a spawn.
            assert tick(50) is None
            action = tick(50)
            assert action["action"] == "up" and action["reason"] == "rejoin"
            assert cluster.stats()["live"] == [0, 1, 2]
            clock[0] += 3600.0

            # max_shards caps growth even under a sustained breach.
            assert tick(50) is None
            assert tick(50) is None
            assert len(cluster.stats()["live"]) == 3

            # The decisions landed on the cluster's own telemetry plane.
            counters = {
                (c["name"], c["labels"].get("reason")): c["value"]
                for c in cluster.telemetry.registry.snapshot()["counters"]
            }
            assert counters[("cluster.scale.up", "spawn")] == 1
            assert counters[("cluster.scale.up", "rejoin")] == 1
            assert counters[("cluster.scale.down", "drain")] == 1
            snapshot = cluster.metrics_snapshot()
            assert any(
                c["name"] == "cluster.scale.up"
                and c["labels"].get("shard") == "cluster"
                for c in snapshot["counters"]
            )
        finally:
            cluster.close()

    def test_scale_down_never_drains_remote_or_below_min(self):
        program = make_poly_program()
        eva, tcp = start_remote_shard(program)
        cluster = EvaCluster(
            shards=1,
            backend=BackendSpec("mock-exact", seed=7),
            batch_window=0.0,
            scale_policy=self._policy(min_shards=1, cooldown=0.0, observations=1),
        )
        cluster.register("poly", program)
        cluster.start()
        try:
            cluster.attach_shard(*tcp.address)
            # Two live shards, but the only local one is the last above
            # min_shards... the remote endpoint must not be drained in its
            # place, and the local one is the last ring member candidate.
            action = cluster.scale_tick(queue_depth=0)
            assert action is None or action.get("shard") != 1
            assert 1 in cluster.stats()["live"]
        finally:
            cluster.close()
            tcp.shutdown()
            tcp.server_close()
            eva.close()

    def test_observed_queue_depth_sums_engine_backlogs(self):
        cluster = EvaCluster(
            shards=1, backend=BackendSpec("mock-exact", seed=7), batch_window=0.0
        )
        cluster.register("poly", make_poly_program())
        cluster.start()
        try:
            assert cluster._observed_queue_depth() == 0.0
            cluster.request("poly", {"x": [1.0]}, client_id="alice")
            assert cluster._observed_queue_depth() == 0.0
        finally:
            cluster.close()
