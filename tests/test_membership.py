"""The control plane's properties, checked on the machine: no process, socket or sleep.

``repro.serving.membership`` is the sans-IO half of ``EvaCluster`` — the shard
table and the ring derived from it.  These tests drive it with seeded random
walks and assert the bounded-response properties after every event;
``TestBoundedResponse`` does the same for ``EvaCluster._call``,
and for the client helpers that reach it through ``EvaCluster.call``, over
scripted stub handles.  (The process tests in ``test_cluster.py`` replay the
event sequences their IO shell produced through a fresh machine.)
"""

import ast
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.errors import ServingError, TransportError
from repro.serving import EvaCluster, ServingClient, ShardHandle, membership, netserver
from repro.serving import cluster as cluster_module
from repro.serving.membership import (
    DEAD, DRAIN, DRAINED, EVENTS, JOIN, LIVE, PROBE_FAILED, PROBE_OK, PROCESS_DIED,
    REJOIN, REJOIN_RESPAWNED, STATES, TRANSITIONS, TRANSPORT_FAILURE, Membership,
)  # fmt: skip


def test_the_machine_is_sans_io():
    """No socket, thread, process or clock: time and observations are arguments."""
    tree = ast.parse(open(membership.__file__, encoding="utf-8").read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported |= {alias.name for alias in node.names}
    parts = {part for name in imported for part in name.split(".")}
    assert not parts & {"socket", "threading", "multiprocessing", "time", "netserver", "subprocess"}


class TestTransitionTable:
    def test_every_pair_is_a_row_or_a_typed_refusal(self):
        for state in (None, *STATES):
            for event in EVENTS:
                members = Membership()
                members.apply(0, JOIN)  # a second live shard, so a drain is never "the last"
                if state is not None:
                    members.apply(1, JOIN)
                    {LIVE: lambda: None, DRAINED: lambda: members.apply(1, DRAIN),
                     DEAD: lambda: members.apply(1, PROCESS_DIED)}[state]()
                before = (dict(members.state), dict(members.generation), members.ring.nodes)
                if (state, event) in TRANSITIONS:
                    assert members.apply(1, event) == TRANSITIONS[(state, event)]
                else:
                    with pytest.raises(ServingError, match="no shard 1|not in the ring"):
                        members.apply(1, event)
                    assert before == (members.state, members.generation, members.ring.nodes)

    def test_the_rows_the_process_tests_used_to_pin(self):
        # test_drained_shard_that_dies_is_reported_dead, as a table row ...
        assert TRANSITIONS[(DRAINED, PROCESS_DIED)] == DEAD
        # ... while a parked shard that only misses a ping stays parked,
        assert TRANSITIONS[(DRAINED, PROBE_FAILED)] == DRAINED
        # a dead shard that answers again waits for an explicit rejoin,
        assert TRANSITIONS[(DEAD, PROBE_OK)] == DEAD
        # and a transport failure to a live process changes nothing.
        assert all(TRANSITIONS[(state, TRANSPORT_FAILURE)] == state for state in STATES)
        assert set(TRANSITIONS.values()) <= set(STATES)
        assert {event for _state, event in TRANSITIONS} == set(EVENTS)

    def test_the_wire_ops_refusals(self):
        members = Membership()
        with pytest.raises(ServingError, match="no shard 9"):
            members.apply(9, DRAIN)
        with pytest.raises(ServingError, match="no shard 9"):
            members.apply(9, REJOIN)
        members.apply(0, JOIN)
        with pytest.raises(ServingError, match="refusing to drain shard 0: it is the last"):
            members.apply(0, DRAIN)
        members.apply(0, PROCESS_DIED)
        with pytest.raises(ServingError, match=r"shard 0 is not in the ring \(already dead\?\)"):
            members.apply(0, DRAIN)
        with pytest.raises(ServingError, match="no live shards"):
            members.route("alice")

    def test_an_observation_of_a_predecessor_is_ignored(self):
        members = Membership()
        members.apply(0, JOIN)
        observed = members.generation.get(0, 0)  # the probe starts ...
        members.apply(0, PROCESS_DIED)
        members.apply(0, REJOIN_RESPAWNED)  # ... the shard is respawned meanwhile ...
        assert members.apply(0, PROBE_FAILED, generation=observed) == LIVE  # ... and it stays
        assert members.apply(0, PROBE_FAILED, generation=members.generation[0]) == DEAD


class TestRandomWalk:
    """≥ 2 000 events over ≤ 6 shards, every property after every event."""

    SHARDS = 6

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_properties_hold_after_every_event(self, seed):
        rng = random.Random(seed)
        members = Membership(replicas=8)
        keys = [f"client-{i}" for i in range(16)]
        refused = applied = 0
        for _step in range(2500):
            index = rng.randrange(self.SHARDS)
            event = rng.choice(EVENTS)
            state, generation = members.state.get(index), members.generation.get(index, 0)
            live_before = members.indices(LIVE)
            try:
                after = members.apply(index, event)
                applied += 1
            except ServingError:
                refused += 1
                assert (state, event) not in TRANSITIONS or (
                    event == DRAIN and live_before == [index]
                ), "a row of the table was refused"
                assert members.state.get(index) == state  # a refusal changes nothing
                after = state
            else:
                assert after == TRANSITIONS[(state, event)]
            # The ring is exactly the live set, and routing stays inside it.
            assert members.ring.nodes == members.indices(LIVE)
            parked = set(members.indices(DRAINED, DEAD))
            assert not set(members.indices(DEAD)) & set(members.indices(DRAINED))
            if members.ring.nodes:
                assert not {members.route(key) for key in keys} & parked
            else:
                with pytest.raises(ServingError, match="no live shards"):
                    members.route(keys[0])
            # A drain never empties the ring, and is idempotent.
            if event == DRAIN and live_before:
                assert members.indices(LIVE)
            if event == DRAIN and state == DRAINED:
                assert after == DRAINED
            # Only a respawning rejoin moves the generation, and strictly up.
            moved = members.generation.get(index, 0) - generation
            assert moved == (1 if event == REJOIN_RESPAWNED and state is not None else 0)
        assert applied > 1500 and refused > 20  # the walk reached both kinds of pair

    def test_a_process_death_beats_a_drain(self):
        members = Membership()
        for index in range(3):
            members.apply(index, JOIN)
        members.apply(1, DRAIN)
        assert members.indices(DRAINED) == [1]
        members.apply(1, PROCESS_DIED)
        assert members.indices(DRAINED) == [] and members.indices(DEAD) == [1]
        assert members.apply(1, REJOIN_RESPAWNED) == LIVE and members.generation[1] == 1


class TestBoundedResponse:
    """``EvaCluster._call`` answers or raises ``ServingError`` after at most
    ``retries + 1`` attempts, and every failed attempt either removed the shard
    it tried from the ring or left it routable — on stub handles, no process."""

    def _cluster(self, shards, retries, script):
        cluster = EvaCluster(shards=shards, retries=retries)
        cluster._started = True
        for index in range(shards):
            process = SimpleNamespace(
                pid=1000 + index, is_alive=lambda index=index: script.alive[index]
            )
            handle = ShardHandle(index=index, process=process, host="stub", port=index)
            cluster._transition(index, JOIN, handle=handle)
        cluster._client_for = lambda index: index  # the "connection" is the index
        cluster._drop_connection = lambda cache, index: None
        cluster._ping_shard = lambda handle, timeout=2.0: script.alive[handle.index]
        return cluster

    @pytest.mark.parametrize("seed", range(20))
    def test_reply_or_typed_error_within_retries_plus_one(self, seed):
        rng = random.Random(seed)
        retries = rng.choice([1, 2, 3])
        script = SimpleNamespace(alive={index: True for index in range(5)})
        cluster = self._cluster(shards=5, retries=retries, script=script)
        attempts = []

        def fn(index):
            outcome = rng.choice(["ok", "flaky", "flaky", "died"])
            attempts.append((index, outcome))
            if outcome == "ok":
                return f"reply from {index}"
            script.alive[index] = outcome != "died"
            raise TransportError("connection to server lost") if rng.random() < 0.5 else OSError("reset")

        for _request in range(40):
            del attempts[:]
            live_before = cluster._live_shards()
            try:
                reply = cluster._call(f"client-{rng.randrange(8)}", fn)
            except ServingError as error:
                assert "no live shards" in str(error) or f"after {retries + 1} attempts" in str(error)
            else:
                assert reply == f"reply from {attempts[-1][0]}" and attempts[-1][1] == "ok"
            assert len(attempts) <= retries + 1
            live_after = cluster._live_shards()
            died = {index for index, outcome in attempts if outcome == "died"}
            for index, _outcome in attempts:
                assert index in live_before  # only routable shards are tried
                if index in died:  # the failed attempt removed it from the ring ...
                    assert index not in live_after and index in cluster.members.indices(DEAD)
                else:  # ... or left it routable: a live process stays
                    assert index in live_after
            if not live_after:
                break
        else:
            assert cluster._live_shards()

    @pytest.mark.parametrize("seed", range(20))
    def test_the_client_helpers_fail_over_through_call(self, seed):
        """The inherited helpers reach a shard only through ``EvaCluster.call``:
        a traced submit sends one trace id on every attempt, a session exports
        its keys once per attempt on that attempt's connection, an encrypted
        submit encrypts once — and each ends in a reply or a ``ServingError``
        within ``retries + 1`` attempts."""
        rng = random.Random(seed)
        retries = rng.choice([1, 2, 3])
        script = SimpleNamespace(alive={index: True for index in range(5)}, encoding_on=None)
        cluster = self._cluster(shards=5, retries=retries, script=script)
        sent = []  # (connection, op, fields as encoded), one per attempt

        class Connection:
            def __init__(self, index):
                self.index = index

            def call(self, op, **fields):
                script.encoding_on = self.index  # a callable field is encoded by this connection
                fields = {key: value() if callable(value) else value for key, value in fields.items()}
                sent.append((self.index, op, fields))
                outcome = rng.choice(["ok", "flaky", "flaky", "died"])
                if outcome != "ok":
                    script.alive[self.index] = outcome != "died"
                    raise TransportError("connection to server lost") if rng.random() < 0.5 else OSError("reset")
                if op == "session":
                    return {"program": fields["program"], "client_id": fields["client_id"]}
                outputs = {"y": fields["bundle"]} if "bundle" in fields else {"y": [1.0]}
                trace = {"trace_id": fields["trace_id"]} if fields["trace"] else None
                return {"ok": True, "outputs": outputs, "encrypted_outputs": outputs,
                        "stats": {"shard": self.index}, "trace": trace}  # fmt: skip

        class Kit:
            def __init__(self, client_id):
                self.client_id, self.exports, self.encodings, self.encryptions = client_id, [], [], 0

            def export_evaluation_keys(self):
                self.exports.append(script.encoding_on)
                return {"keys": script.encoding_on}

            def encrypt_inputs(self, inputs):
                self.encryptions += 1
                return ("ciphertexts", self.client_id)

            def bundle_to_wire(self, bundle):
                self.encodings.append(script.encoding_on)
                return {"bundle": bundle}

            def outputs_from_wire(self, reply):
                return reply

            def decrypt_outputs(self, outputs):
                return {"decrypted": outputs}

        cluster._client_for = Connection
        for _request in range(40):
            del sent[:]
            kit = Kit(f"client-{rng.randrange(8)}")
            kind = rng.choice(["submit", "session", "encrypted"])
            try:
                if kind == "submit":
                    reply = cluster.submit("poly", {"x": [1.0]}, client_id=kit.client_id, trace=True)
                elif kind == "session":
                    reply = cluster.create_session("poly", kit)
                else:
                    reply = cluster.submit_encrypted("poly", kit, {"x": [1.0]}, trace=True)
            except ServingError as error:
                assert "no live shards" in str(error) or f"after {retries + 1} attempts" in str(error)
                reply = None
            assert len(sent) <= retries + 1
            attempts = [index for index, _op, _fields in sent]
            assert {op for _index, op, _fields in sent} <= {"session" if kind == "session" else "submit"}
            assert all(fields["client_id"] == kit.client_id for _index, _op, fields in sent)
            if kind == "session":
                assert kit.exports == attempts
                assert [fields["evaluation_keys"] for _i, _op, fields in sent] == [{"keys": i} for i in attempts]
            else:
                trace_ids = {fields["trace_id"] for _i, _op, fields in sent}
                assert len(trace_ids) <= 1 and None not in trace_ids
            if kind == "encrypted":
                assert kit.encryptions == 1 and kit.encodings == attempts
            if reply is not None:
                expected = {
                    "submit": {"y": [1.0]},
                    "session": {"program": "poly", "client_id": kit.client_id},
                    "encrypted": {"decrypted": {"y": {"bundle": ("ciphertexts", kit.client_id)}}},
                }[kind]
                assert reply == expected
                if kind != "session":
                    assert cluster.last_trace == {"trace_id": sent[-1][2]["trace_id"]}
                    assert cluster.last_stats == {"shard": attempts[-1]}
            if not cluster._live_shards():
                break


class TestOneClientPath:
    """The cluster speaks ``ServingClient``'s API: the helpers are written once,
    and what a failover repeats is ``call``."""

    HELPERS = ("submit", "_submit", "create_session", "submit_bundle", "submit_encrypted", "programs")

    @staticmethod
    def tree(module):
        return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))

    def test_the_cluster_inherits_the_helpers(self):
        for name in self.HELPERS:
            assert getattr(EvaCluster, name) is getattr(ServingClient, name), name
        tree = self.tree(cluster_module)
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not defined & {"request", "request_encrypted", *self.HELPERS}
        assert "last_trace_id" not in {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}

    def test_a_trace_id_is_minted_in_one_place_on_the_client_side(self):
        def minting(tree):
            return [
                function.name
                for function in ast.walk(tree)
                if isinstance(function, ast.FunctionDef)
                for node in ast.walk(function)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "new_trace_id"
            ]

        client_side = [
            node
            for node in self.tree(netserver).body
            if isinstance(node, ast.ClassDef) and node.name in ("ClientApi", "ServingClient")
        ]
        assert [name for cls in client_side for name in minting(cls)] == ["_submit"]
        assert minting(self.tree(cluster_module)) == []

    def test_one_place_encodes_a_kit_for_its_connection(self):
        src = Path(netserver.__file__).parent.parent
        uses = [
            path.name
            for path in sorted(src.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr == "_kit_packing"
        ]
        assert uses == ["netserver.py"]


class TestShellRaces:
    """Two interleavings the IO shell must survive, scripted on stub handles."""

    _cluster = TestBoundedResponse._cluster

    def test_a_shard_respawned_mid_probe_is_reported_as_its_successor(self):
        script = SimpleNamespace(alive={0: True, 1: True})
        cluster = self._cluster(shards=2, retries=1, script=script)
        corpse = cluster._handles[0]
        corpse.process.is_alive = lambda: False
        successor = ShardHandle(0, SimpleNamespace(pid=2000, is_alive=lambda: True), "stub", 99)
        observe = cluster._observe

        def observe_while_a_rejoin_lands(index, probe):
            observed = observe(index, probe)
            if observed[0] is corpse:  # the rejoin finishes before the verdict is applied
                cluster._transition(0, REJOIN_RESPAWNED, handle=successor)
            return observed

        cluster._observe = observe_while_a_rejoin_lands
        row = cluster.check_health()[0]
        assert (row["pid"], row["port"]) == (2000, 99)
        assert row["alive"] and row["responsive"] and row["in_ring"] and row["status"] == LIVE
        assert cluster.members.generation[0] == 1

    def test_the_loser_of_a_race_for_a_shared_connection_is_closed(self, monkeypatch):
        cluster = self._cluster(2, 1, SimpleNamespace(alive={0: True, 1: True}))
        del cluster._drop_connection  # the real one, not _cluster's stub
        made, cache = [], {}

        class Connection:
            closed = False

            def close(self):
                self.closed = True

        def connect(host, port, timeout=None, wire="auto"):
            if not made:  # a second thread misses the same entry while this one connects
                made.append(None)
                made[0] = cluster._connection(cache, 0, 2.0, "json")
            made.append(Connection())
            return made[-1]

        monkeypatch.setattr("repro.serving.netserver.ServingClient", connect)
        winner = cluster._connection(cache, 0, 2.0, "json")
        loser = made[0]
        assert winner is made[-1] and cache[0] == (0, winner)
        assert loser.closed and not winner.closed
        assert set(cluster._all_clients) == {winner}
