"""The wire's op table (``messages.OPS`` / ``messages.FIELDS``) and what reads it.

* one row is enough: a throwaway op added to the table is built, framed,
  dispatched by both kinds of connection, called through ``ServingClient``
  and accepted by the ``cli cluster`` parser with nothing else patched;
* every (op, field) pair refuses a wrong-typed value on the building and on
  the receiving side, naming the field;
* the request bytes and the replies are those of the commit before the table
  (``tests/data/wire_corpus.json``, captured there with ``tests/wire_corpus.py``);
* the per-op chains are gone from the source.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest
from test_aionet import exchange, make_poly_program, on_wire
from wire_corpus import BUNDLE, KEYS, REQUESTS, X, connections, reply_corpus, request_corpus

from repro import cli, wire
from repro.backend import MockBackend
from repro.core.serialization import messages
from repro.errors import SerializationError, ServingError
from repro.serving import EvaServer, EvaTcpServer, ServingClient, netserver

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = json.loads((REPO_ROOT / "tests" / "data" / "wire_corpus.json").read_text())


class TestSameBytesSameReplies:
    def test_request_bytes_are_those_of_the_parent_commit(self):
        assert request_corpus() == CORPUS["requests"]

    def test_replies_have_the_keys_and_values_of_the_parent_commit(self):
        replies = json.loads(json.dumps(reply_corpus()))
        assert len(replies) == len(CORPUS["replies"]) == 4 * len(REQUESTS)
        for now, then in zip(replies, CORPUS["replies"]):
            assert now == then
            assert list(now["reply"]) == list(then["reply"])  # and in that order

    def test_the_harness_call_forms(self):
        """The names ``benchmarks/e2e`` imports, called as it calls them."""
        message = messages.build_request("submit", program="p", bundle=BUNDLE, client_id="c")
        assert message == {"op": "submit", "program": "p", "bundle": BUNDLE, "client_id": "c"}
        line = messages.encode_request("submit", program="p", inputs={"x": X}, client_id="c", output_size=4)
        assert json.loads(line)["output_size"] == 4
        reply = messages.build_response(outputs={"y": X}, stats={"batch_size": 1})
        decoded = messages.decode_response(json.dumps(reply))
        np.testing.assert_allclose(decoded["outputs"]["y"], X)
        assert messages.finish_response(reply)["stats"] == {"batch_size": 1}
        for name in ("submit", "create_session", "submit_bundle", "submit_encrypted", "metrics"):
            assert callable(getattr(ServingClient, name))


def wrong_values():
    """(op, field, a value of the wrong type or range) for every pair in the table."""
    wrong = {
        "program": 7, "inputs": {"x": ["a"]}, "bundle": [1], "evaluation_keys": "keys",
        "client_id": 7, "output_size": 0, "shard": "zzz", "host": "", "port": 65536,
        "trace_id": 7, "trace": "yes", "format": 7, "limit": "abc", "deadline_ms": True,
        "slo_class": "urgent",
    }  # fmt: skip
    assert set(wrong) == set(messages.FIELDS)
    return [(op, name, wrong[name]) for op, row in messages.OPS.items() for name in row.fields]


def valid_request(op):
    valid = {"program": "poly", "evaluation_keys": KEYS, "shard": 0, "host": "h", "port": 1, "trace_id": "t"}
    return {"op": op, **{name: valid[name] for name in messages.OPS[op].required}}


class TestEveryFieldIsChecked:
    @pytest.mark.parametrize("op, name, value", wrong_values(), ids=lambda v: str(v)[:12])
    def test_a_wrong_value_is_refused_on_both_sides(self, op, name, value):
        message = dict(valid_request(op), **{name: value})
        fields = {key: item for key, item in message.items() if key != "op"}
        for refuse in (
            lambda: messages.build_request(op, **fields),
            lambda: messages.validate_request(dict(message)),
        ):
            with pytest.raises(SerializationError) as caught:
                refuse()
            assert repr(name) in str(caught.value) and str(caught.value).startswith(op)

    @pytest.mark.parametrize("op", sorted(messages.OPS))
    def test_a_built_request_is_an_accepted_request(self, op):
        row = messages.OPS[op]
        valid = {
            "program": "poly", "inputs": {"x": X}, "evaluation_keys": KEYS, "client_id": "alice",
            "output_size": np.int64(2), "shard": 3, "host": "h", "port": 8587, "trace_id": "t",
            "trace": True, "format": "prometheus", "limit": 5, "deadline_ms": 250,
            "slo_class": "standard",
        }  # fmt: skip
        fields = {name: valid[name] for name in row.fields if name in valid}
        built = json.loads(json.dumps(messages.build_request(op, **fields)))
        accepted = messages.validate_request(dict(built))
        assert set(accepted) == set(built)
        for name in row.required:
            with pytest.raises(SerializationError, match=f"{op} requests need '{name}'"):
                messages.build_request(op, **{k: v for k, v in fields.items() if k != name})
            with pytest.raises(SerializationError, match=f"{op} requests need '{name}'"):
                messages.validate_request({k: v for k, v in built.items() if k != name})

    def test_the_drifts_between_the_two_hand_written_checkers(self):
        """Each of these was accepted, or failed untyped, on one side."""
        with pytest.raises(SerializationError, match="'limit'"):
            messages.validate_request({"op": "slow", "limit": "abc"})
        with pytest.raises(SerializationError, match="'format'"):
            messages.validate_request({"op": "metrics", "format": 7})
        with pytest.raises(SerializationError, match="'shard'"):
            messages.validate_request({"op": "ping", "shard": "zzz"})
        with pytest.raises(SerializationError, match="'port'"):
            messages.build_request("join", host="h", port=70000)
        with pytest.raises(SerializationError, match="'deadline_ms'"):
            messages.build_request("submit", program="p", inputs={}, deadline_ms=True)

    def test_a_field_the_op_does_not_carry(self):
        with pytest.raises(SerializationError, match="ping requests carry no 'shard' field"):
            messages.build_request("ping", shard=3)
        with pytest.raises(SerializationError, match="carry no 'colour' field"):
            messages.build_request("ping", colour="red")
        # A default is "absent", whatever the op; a well-formed stray is ignored on receive.
        assert messages.build_request("ping", trace=False, client_id="default", limit=None) == {"op": "ping"}
        assert messages.validate_request({"op": "ping", "shard": 3})["shard"] == 3

    def test_the_rows_agree_with_the_endpoints(self):
        shard, router = netserver._ShardConnection.answers, netserver._RouterConnection.answers
        for op, row in messages.OPS.items():
            assert row.cluster_only == (op not in shard), op
            assert row.forwarded == (op not in router), op
            assert set(row.fields) <= set(messages.FIELDS)
        assert set(shard) | set(router) == set(messages.OPS) == set(messages.REQUEST_OPS)


class TestOneRowIsEnough:
    """A new op is one row and one answer per endpoint: nothing else knows ops."""

    @pytest.fixture
    def echo(self, monkeypatch):
        row = messages.Op("echo", required=("shard",), optional=("limit",), reply="echoed")
        monkeypatch.setitem(messages.OPS, "echo", row)

        def answer(conn, request, framing):
            return {"by": type(conn).__name__, "shard": request["shard"], "limit": request.get("limit")}

        monkeypatch.setitem(netserver._ShardConnection.answers, "echo", answer)
        monkeypatch.setitem(netserver._RouterConnection.answers, "echo", answer)

    def test_through_every_layer(self, echo):
        message = messages.build_request("echo", shard=4, limit=9, client_id="alice")
        assert message == {"op": "echo", "client_id": "alice", "shard": 4, "limit": 9}
        with pytest.raises(SerializationError, match="echo requests need 'shard'"):
            messages.build_request("echo")
        server = EvaServer(backend=MockBackend(error_model="none"), workers=1)
        try:
            for conn in connections(server).values():
                expected = {"ok": True, "echoed": {"by": type(conn).__name__, "shard": 4, "limit": 9}}
                for framing in (wire.JSON, wire.BINARY):
                    assert exchange(conn, on_wire(framing, message)) == expected
                    refused = exchange(conn, on_wire(framing, {"op": "echo", "shard": -1}))
                    assert refused["kind"] == "SerializationError" and "'shard'" in refused["error"]
            tcp = EvaTcpServer(server, port=0)
            tcp.start_background()
            try:
                with ServingClient(*tcp.address) as client:
                    assert client.call("echo", shard=2) == {"by": "_ShardConnection", "shard": 2, "limit": None}
                    with pytest.raises(SerializationError, match="'limit'"):
                        client.call("echo", shard=2, limit="many")
            finally:
                tcp.shutdown()
        finally:
            server.close()

    def test_through_the_cluster_command(self, echo, capsys):
        args = cli.build_parser().parse_args(["cluster", "echo", "--shard", "5", "--limit", "1"])
        assert (args.action, args.shard, args.limit) == ("echo", 5, 1)
        assert cli.main(["cluster", "echo"]) == 1
        assert "cluster echo needs --shard" in capsys.readouterr().err
        server = EvaServer(backend=MockBackend(error_model="none"), workers=1)
        tcp = EvaTcpServer(server, port=0)
        tcp.start_background()
        try:
            assert cli.main(["cluster", "echo", "--shard", "5", "--port", str(tcp.address[1])]) == 0
            assert json.loads(capsys.readouterr().out) == {
                "echoed": {"by": "_ShardConnection", "shard": 5, "limit": None}
            }
        finally:
            tcp.shutdown()
            server.close()

    def test_an_op_an_endpoint_has_no_answer_for(self, monkeypatch):
        monkeypatch.setitem(messages.OPS, "echo", messages.Op("echo"))
        server = EvaServer(backend=MockBackend(error_model="none"), workers=1)
        try:
            conns = connections(server)
            assert exchange(conns["shard"], on_wire(wire.JSON, {"op": "echo"}))["error"] == (
                "echo is a cluster operation; this is a single-process server"
            )
            assert exchange(conns["router"], on_wire(wire.JSON, {"op": "echo"}))["error"] == (
                "the router does not answer 'echo' requests"
            )
            for op in ("route", "drain", "rejoin", "join"):
                reply = exchange(conns["shard"], on_wire(wire.JSON, valid_request(op)))
                assert reply["kind"] == "ServingError" and "is a cluster operation" in reply["error"]
        finally:
            server.close()


class TestOldPathsAreGone:
    WIRE_PATH = ("core/serialization/messages.py", "serving/netserver.py", "cli.py")

    def trees(self):
        for name in self.WIRE_PATH:
            yield name, ast.parse((REPO_ROOT / "src" / "repro" / name).read_text())

    def test_nothing_compares_against_an_op_name(self):
        """No ``if op == "drain"`` / ``elif args.action == "drain"`` chain, no
        ``op in ("submit", "session")``: who answers what is table data."""
        for name, tree in self.trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.Compare):
                    constants = [
                        c.value
                        for side in (node.left, *node.comparators)
                        for c in ast.walk(side)
                        if isinstance(c, ast.Constant)
                    ]
                    assert not set(constants) & set(messages.OPS), f"{name}:{node.lineno}"
        assert not hasattr(messages, "SHARD_OPS")

    def test_an_op_name_is_spelled_at_most_three_times(self):
        """Its row, what the endpoints answer it with, its ``ServingClient``
        helper.  Names that are also a reply field or a CLI subcommand
        (``stats`` of a submit reply, ``repro.cli submit``) are counted by use."""
        also_spelled_otherwise = {"submit", "stats", "metrics", "trace"}
        counts = {op: 0 for op in messages.OPS}
        for _name, tree in self.trees():
            docstrings = {
                id(node.body[0].value)
                for node in ast.walk(tree)
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                and ast.get_docstring(node) is not None
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and id(node) not in docstrings and node.value in counts:
                    counts[node.value] += 1
        for op, count in counts.items():
            if op not in also_spelled_otherwise:
                assert count <= 3, (op, count)


class TestServingClientCall:
    def test_call_returns_the_payload_under_the_rows_key(self):
        server = EvaServer(backend=MockBackend(error_model="none"), workers=1)
        server.register("poly", make_poly_program())
        tcp = EvaTcpServer(server, port=0)
        tcp.start_background()
        try:
            with ServingClient(*tcp.address) as client:
                assert client.call("ping") is True and client.ping() is True
                assert client.call("list") == client.programs() == ["poly"]
                assert client.call("health") == client.health()
                assert client.call("trace", trace_id="nope") is None
                assert set(client.metrics(prometheus=True)) == {"metrics", "prometheus"}
                assert set(client.metrics()) == {"metrics"}
                whole = client.call("submit", program="poly", inputs={"x": [1.0, 2.0]})
                assert whole["ok"] and set(whole) >= {"outputs", "stats"}
                with pytest.raises(ServingError, match="is a cluster operation"):
                    client.call("drain", shard=0)
                with pytest.raises(SerializationError, match="unknown request op 'explode'"):
                    client.call("explode")
        finally:
            tcp.shutdown()
            server.close()
