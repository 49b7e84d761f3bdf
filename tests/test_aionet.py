"""Tests for the listener (:mod:`repro.serving.aionet`) and what it drives.

The protocol matrix (negotiation, chunked uploads, mixed JSON+binary
clients) and the socket-free frame-decoder matrix live in ``test_wire.py``.
This file covers the two halves the listener joins — sans-IO connection
objects driven with no network at all, and connection->slot binding in the
dispatch pool — and then the real thing: sequential clients sharing one
dispatch thread (directly and through a router), abrupt disconnects
mid-frame and mid-line, and an idle crowd served alongside live traffic.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro import wire
from repro.backend import MockBackend
from repro.core.serialization import messages
from repro.core.serialization.packing import raw_blobs
from repro.frontend import EvaProgram, input_encrypted, output
from repro.serving import EvaServer, EvaTcpServer, FairnessPolicy, ServingClient, ShardConfig, Telemetry
from repro.serving import aionet, netserver
from repro.serving.quotas import QuotaLedger
from repro.wire.frames import encode_varint


def make_poly_program(name="poly", vec_size=32):
    program = EvaProgram(name, vec_size=vec_size, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", x * x + x + 1.0, 25)
    return program


def make_server():
    server = EvaServer(backend=MockBackend(error_model="none"), workers=2)
    server.register("poly", make_poly_program())
    return server


@pytest.fixture
def async_server():
    server = make_server()
    tcp = EvaTcpServer(server, port=0)
    tcp.start_background()
    try:
        yield tcp
    finally:
        tcp.shutdown()
        server.close()


# -- sans-IO connection objects and the dispatch pool ---------------------------


class FakeListener:
    """What a shard connection needs from its listener — no socket in sight."""

    def __init__(self, eva_server):
        self.eva_server = eva_server
        self.telemetry = eva_server.telemetry

    def connection_infos(self):
        return []


class FakeRouter:
    """What a router connection needs from its listener."""

    def __init__(self, cluster, fairness=None):
        self.cluster = cluster
        self.ledger = QuotaLedger(fairness)
        self.telemetry = Telemetry(shard="router")

    def connection_infos(self):
        return []


class LoopbackUpstream:
    """A ServingClient's ``send``/``roundtrip``, looped straight into a sans-IO
    shard connection; records every (framing, frame type, parts) it was handed."""

    def __init__(self, shard_conn):
        self.conn = shard_conn
        self.sent = []

    def send(self, framing, frame_type, parts):
        self.sent.append((framing, frame_type, parts))
        reply, _keep_open = self.conn.handle(decode_reply(framing.encode(frame_type, parts)))
        return reply

    def roundtrip(self, framing, parts):
        return wire.open_message(decode_reply(self.send(framing, wire.FRAME_REQUEST, parts)))[2]


class StubCluster:
    """The one thing a router connection forwards through: ``_call``."""

    def __init__(self, upstream):
        self.upstream = upstream
        self.routed = []

    def _call(self, client_id, fn):
        self.routed.append(client_id)
        return fn(self.upstream)


def decode_reply(data):
    decoder = wire.FrameDecoder()
    decoder.feed(data)
    message = decoder.next_message()
    assert decoder.pending == 0 and decoder.next_message() is None
    return message


def on_wire(framing, message, frame_type=wire.FRAME_REQUEST):
    """One message dict as the bytes ``framing`` puts on the wire."""
    with framing.blob_context():
        return framing.encode(frame_type, framing.parts(message))


def exchange(conn, data):
    """Feed one message's wire bytes to ``conn``; returns the decoded reply
    (None when the message is not answered) after pinning its encoding."""
    received, sent = conn.bytes_received, conn.bytes_sent
    reply, keep_open = conn.handle(decode_reply(data))
    assert keep_open and isinstance(reply, bytes)
    assert (conn.bytes_received, conn.bytes_sent) == (received + len(data), sent + len(reply))
    if not reply:
        return None
    framing, frame_type, raw, nbytes = wire.open_message(decode_reply(reply))
    assert frame_type in (None, wire.FRAME_RESPONSE) and nbytes == len(reply)
    # Replies answer in the framing of the request...
    assert framing is (wire.BINARY if data[0] == wire.MAGIC else wire.JSON)
    message = framing.decode(raw, framing.peek(raw))
    # ...and are byte for byte what the encoders have always produced.
    if framing is wire.JSON:
        assert reply == (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")
    else:
        with raw_blobs():
            assert reply == wire.encode_frame(wire.FRAME_RESPONSE, *wire.encode_message(message))
    return messages.finish_response(message)


def submit(framing, tag, program="poly", **fields):
    """A plaintext submit under a client id unique to (row, framing)."""
    with framing.blob_context():
        return messages.build_request(
            "submit",
            program=program,
            inputs={"x": [1.0, 2.0]},
            client_id=f"{tag}-{framing.name}",
            pack_inputs=framing.packed,
            **fields,
        )


def chunked_submit(framing, tag):
    """The same submit with its blobs streamed as CHUNK frames first (binary;
    a JSON line carries them inline)."""
    request = submit(framing, tag)
    envelope, blobs = framing.split(request)
    stream = []
    for index, blob in enumerate(blobs):
        half = len(blob) // 2
        for position, view in enumerate((memoryview(blob)[:half], memoryview(blob)[half:])):
            chunk = {"upload": "up-1", "blob": index, "eof": position == 1,
                     "client_id": request["client_id"]}
            stream.append(wire.encode_frame(wire.FRAME_CHUNK, *wire.join_message(chunk, [view])))
    if blobs:
        envelope[wire.UPLOAD_KEY] = "up-1"
    return stream + [framing.encode(wire.FRAME_REQUEST, framing.join(envelope, ()))]


def outputs_are(expected):
    def check(reply):
        assert reply["ok"], reply
        np.testing.assert_allclose(reply["outputs"]["y"][: len(expected)], expected, atol=1e-6)

    return check


def is_error(kind, **fields):
    def check(reply):
        assert not reply["ok"] and reply["kind"] in kind.split("|"), reply
        for key, value in fields.items():
            assert value(reply.get(key)) if callable(value) else reply.get(key) == value, reply

    return check


#: One behaviour, two encodings: (name, framing -> wire byte strings, check of
#: the last reply, whether the decoded replies must be equal across framings).
CASES = [
    # What an earlier build's client opened with; this build's clients send none.
    ("hello", lambda f: [on_wire(f, {"op": "hello", "wire": "binary", "versions": [1], "features": ["seeded"]})],
     {"ok": True, "wire": "binary", "version": wire.PROTOCOL_VERSION}.__eq__, True),
    ("hello then a request",
     lambda f: [on_wire(f, {"op": "hello", "wire": "auto", "versions": [1]}), on_wire(f, {"op": "ping"})],
     {"ok": True, "pong": True}.__eq__, True),
    ("ping", lambda f: [on_wire(f, {"op": "ping"})], {"ok": True, "pong": True}.__eq__, True),
    ("submit", lambda f: [on_wire(f, submit(f, "submit"))], outputs_are([3.0, 7.0]), False),
    ("chunk-then-request", lambda f: chunked_submit(f, "chunked"), outputs_are([3.0, 7.0]), False),
    ("unknown op", lambda f: [on_wire(f, {"op": "explode"})], is_error("SerializationError"), True),
    ("malformed payload",
     lambda f: [b"{not json\n" if f is wire.JSON else wire.encode_frame(wire.FRAME_REQUEST, b"\xff\xff")],
     is_error("SerializationError|TransportError"), False),
    # Only frames carry a type: this row has no JSON-lines form.
    ("response-typed frame",
     lambda f: [on_wire(f, {"op": "ping"}, wire.FRAME_RESPONSE)] if f is wire.BINARY else [],
     is_error("TransportError"), False),
    ("error echoes the trace id", lambda f: [on_wire(f, submit(f, "echo", program="nope", trace_id="t-123"))],
     is_error("UnknownProgramError", trace_id="t-123"), True),
    ("quota rejection", lambda f: [on_wire(f, submit(f, "greedy"))] * 2,
     is_error("QuotaExceededError", retry_after=lambda seconds: seconds > 0), False),
    ("drain without a shard", lambda f: [on_wire(f, {"op": "drain"})],
     is_error("SerializationError", error=lambda text: "'shard'" in text and "need" in text), True),
    ("drain with a non-integer shard", lambda f: [on_wire(f, {"op": "drain", "shard": "x"})],
     is_error("SerializationError", error=lambda text: "shard" in text), True),
]


class TestSansIoConnection:
    """The protocol runs with no network: decoded message in, reply bytes out —
    the same table against a shard connection and a router connection (its
    cluster a stub whose ``_call`` loops into an in-memory shard connection)."""

    FAIRNESS = FairnessPolicy(quota_rps=0.001, burst=1)

    @pytest.fixture(params=["shard", "router"])
    def conn(self, request):
        routed = request.param == "router"
        server = EvaServer(
            backend=MockBackend(error_model="none"),
            workers=1,
            fairness=None if routed else self.FAIRNESS,
        )
        server.register("poly", make_poly_program())
        try:
            shard = netserver._ShardConnection(FakeListener(server), 1, "test:0")
            if not routed:
                yield shard
            else:
                cluster = StubCluster(LoopbackUpstream(shard))
                yield netserver._RouterConnection(FakeRouter(cluster, self.FAIRNESS), 7, "test:1")
        finally:
            server.close()

    @pytest.mark.parametrize("name, stream, check, comparable", CASES, ids=[c[0] for c in CASES])
    def test_case_table(self, conn, name, stream, check, comparable):
        replies = {}
        for framing in (wire.JSON, wire.BINARY):
            answered = [exchange(conn, data) for data in stream(framing)]
            if answered:
                check(answered[-1])
                replies[framing.name] = answered[-1]
        if comparable:
            assert replies["json"] == replies["binary"]
        assert conn.protocol == "binary"  # the last message was a frame

    def test_unanswerable_messages(self, conn):
        assert conn.handle(("json", b"  \n")) == (b"", True)  # blank line: ignored
        assert conn.handle(("json", b"\xff\xfe\n")) == (b"", False)  # not UTF-8: close
        # A malformed chunk cannot be answered either: the connection closes.
        chunk = wire.encode_frame(wire.FRAME_CHUNK, b"\xff\xff")
        assert conn.handle(decode_reply(chunk)) == (b"", False)
        assert conn.requests == 0

    def test_upload_bookkeeping_is_bounded(self, conn):
        """Fresh upload ids past the open-upload cap are remembered (so the
        referencing request gets its error) only up to a constant; then the
        connection closes, as for a malformed chunk."""

        def chunk(index):
            envelope = {"upload": f"u{index}", "blob": 0, "eof": False, "client_id": "flood"}
            return decode_reply(wire.encode_frame(wire.FRAME_CHUNK, *wire.join_message(envelope, [b"x"])))

        for index in range(wire.MAX_TRACKED_UPLOADS):
            assert conn.handle(chunk(index)) == (b"", True)
        assert conn.handle(chunk(0)) == (b"", True)  # a known id is not a new record
        assert conn.handle(chunk(wire.MAX_TRACKED_UPLOADS)) == (b"", False)
        tracked = getattr(conn, "_open_uploads", None) or conn.uploads
        assert len(tracked) == wire.MAX_TRACKED_UPLOADS
        # The first over-cap id is still reported on the request that references it.
        over_cap = {"op": "session", "program": "poly", "client_id": "flood",
                    wire.UPLOAD_KEY: f"u{wire.protocol.MAX_OPEN_UPLOADS}"}
        reply = exchange(conn, on_wire(wire.BINARY, over_cap))
        assert reply["kind"] == "SerializationError" and "concurrent uploads" in reply["error"]


class TestRelayedUploadNamespaces:
    """Upload caps are charged per client behind the router, not per upstream
    connection: several router connections share one in-memory shard connection
    (as the clients of one dispatch worker share one upstream socket)."""

    class SharedUpstream(LoopbackUpstream):
        """The loopback, noting whether the shard ever dropped the connection
        every client shares (the router swallows a failed chunk relay)."""

        dropped = False

        def send(self, framing, frame_type, parts):
            self.sent.append((framing, frame_type, parts))
            reply, keep_open = self.conn.handle(decode_reply(framing.encode(frame_type, parts)))
            self.dropped = self.dropped or not keep_open
            return reply

    @pytest.fixture
    def fleet(self):
        server = EvaServer(backend=MockBackend(error_model="none"), workers=1)
        server.register("poly", make_poly_program())
        try:
            shard = netserver._ShardConnection(FakeListener(server), 1, "test:0")
            upstream = self.SharedUpstream(shard)
            router = FakeRouter(StubCluster(upstream))
            yield shard, lambda key: netserver._RouterConnection(router, key, f"test:{key}")
            assert not upstream.dropped, "the shard dropped the shared upstream connection"
        finally:
            server.close()

    def test_five_relayed_clients_with_one_open_upload_each_all_complete(self, fleet):
        shard, connect = fleet
        clients = [(connect(key), chunked_submit(wire.BINARY, f"relayed-{key}")) for key in range(10, 15)]
        for conn, stream in clients:  # every client opens its upload ...
            assert exchange(conn, stream[0]) is None
        assert len(shard.uploads) == 5  # ... five open at once on one upstream connection
        for conn, stream in clients:
            replies = [exchange(conn, data) for data in stream[1:]]
            outputs_are([3.0, 7.0])(replies[-1])
        assert len(shard.uploads) == 0

    def test_a_flooding_client_loses_only_its_own_uploads(self, fleet):
        shard, connect = fleet
        neighbour, stream = connect(20), chunked_submit(wire.BINARY, "neighbour")
        assert exchange(neighbour, stream[0]) is None

        def chunk(index):
            envelope = {"upload": f"u{index}", "blob": 0, "eof": False, "client_id": "flood"}
            return decode_reply(wire.encode_frame(wire.FRAME_CHUNK, *wire.join_message(envelope, [b"x"])))

        flooder = connect(21)
        for index in range(wire.MAX_TRACKED_UPLOADS):
            assert flooder.handle(chunk(index)) == (b"", True)
        # The router cuts the flooder off at its own cap; what the listener
        # does next (close) discards that client's uploads on the shard.
        assert flooder.handle(chunk(wire.MAX_TRACKED_UPLOADS)) == (b"", False)
        assert flooder.needs_close
        flooder.close()
        assert len(shard.uploads) == 1  # the neighbour's, untouched
        replies = [exchange(neighbour, data) for data in stream[1:]]
        outputs_are([3.0, 7.0])(replies[-1])
        assert len(shard.uploads) == 0

    def test_a_direct_clients_caps_are_per_connection(self, fleet):
        """No namespace: the limits and the errors of a direct client are unchanged
        (the boundary itself is ``test_upload_bookkeeping_is_bounded``)."""
        uploads = wire.UploadState()
        for index in range(wire.protocol.MAX_OPEN_UPLOADS + 1):
            uploads.add_chunk({"upload": f"up-{index}", "blob": 0, "eof": True}, b"x")
        assert uploads.finish("up-0") == [bytearray(b"x")]
        with pytest.raises(Exception, match="connection exceeds 4 concurrent uploads"):
            uploads.finish(f"up-{wire.protocol.MAX_OPEN_UPLOADS}")
        # A relayed id is charged to its own namespace, whatever follows the first slash
        # (what bounds a peer that mints namespaces: test_wire's connection-wide ceilings).
        for index in range(wire.protocol.MAX_OPEN_UPLOADS + 1):
            uploads.add_chunk({"upload": f"7/a/{index}", "blob": 0, "eof": True}, b"y")
        assert uploads.finish("7/a/0") == [bytearray(b"y")]
        with pytest.raises(Exception, match="concurrent uploads"):
            uploads.finish(f"7/a/{wire.protocol.MAX_OPEN_UPLOADS}")


class TestRouterPassthrough:
    """What the router hands ``_call``: the client's blob bytes, untouched."""

    class RecordingUpstream:
        def __init__(self):
            self.sent = []

        def roundtrip(self, framing, parts):
            self.sent.append((framing, parts))
            return framing.join({"ok": True}, ())[0]

    @pytest.fixture
    def routed(self, monkeypatch):
        def never(_payload):
            raise AssertionError("the router decoded a forwarded frame's blobs")

        monkeypatch.setattr(wire.framing, "decode_message", never)
        monkeypatch.setattr(netserver, "decode_message", never)
        upstream = self.RecordingUpstream()
        conn = netserver._RouterConnection(FakeRouter(StubCluster(upstream)), 7, "test:1")
        return conn, upstream

    @pytest.mark.parametrize("traced", [True, False], ids=["traced", "trace id minted"])
    def test_forwarded_frame_blobs_are_a_slice_of_the_original_payload(self, routed, traced):
        conn, upstream = routed
        request = submit(wire.BINARY, "relay", **({"trace_id": "t-9"} if traced else {}))
        message = decode_reply(on_wire(wire.BINARY, request))
        payload = message[2]
        reply, keep_open = conn.handle(message)
        assert keep_open and wire.decode_message(decode_reply(reply)[2])[0] == {"ok": True}
        [(framing, parts)] = upstream.sent
        assert framing is wire.BINARY
        if traced:  # nothing to rewrite: the payload itself is relayed
            assert len(parts) == 1 and parts[0] is payload
            return
        envelope, end = wire.peek_envelope(payload)
        rewritten, blobs = parts
        assert isinstance(blobs, memoryview) and blobs.obj is payload
        assert blobs == memoryview(payload)[end:]
        minted = wire.peek_envelope(rewritten)[0]
        assert minted.pop("trace_id") and minted == envelope

    def test_forwarded_json_line_is_spliced_not_reencoded(self, routed):
        conn, upstream = routed
        line = on_wire(wire.JSON, submit(wire.JSON, "relay"))
        conn.handle(("json", line))
        [(framing, (text,))] = upstream.sent
        assert framing is wire.JSON
        body = line.decode("utf-8").strip()
        assert text.startswith(body[:-1] + ',"trace_id":"') and text.endswith('"}\n')


class TestDispatchPoolBinding:
    def test_a_connection_runs_on_one_thread_in_order(self):
        pool = aionet._DaemonDispatchPool(4, name="test-pool")
        slot = pool.bind()
        seen, order = [], []

        def record(value):
            seen.append(threading.get_ident())
            order.append(value)
            return value

        futures = [pool.submit(slot, record, i) for i in range(32)]
        assert [f.result(timeout=10) for f in futures] == list(range(32))
        assert len(set(seen)) == 1, "one connection must stay on one thread"
        assert order == list(range(32)), "per-connection order must hold"

    def test_sequential_connections_reuse_one_thread(self):
        counts = []
        pool = aionet._DaemonDispatchPool(4, name="test-pool", on_threads=counts.append)
        idents = set()
        for _ in range(20):
            slot = pool.bind()
            assert slot.index == 0
            idents.add(pool.submit(slot, threading.get_ident).result(timeout=10))
            pool.release(slot)
        assert len(idents) == 1
        assert counts == [1], "one worker started, and none retired"

    def test_concurrent_connections_get_distinct_threads(self):
        pool = aionet._DaemonDispatchPool(4, name="test-pool")
        barrier = threading.Barrier(4, timeout=10)

        def rendezvous():
            barrier.wait()
            return threading.get_ident()

        slots = [pool.bind() for _ in range(4)]
        assert [slot.index for slot in slots] == [0, 1, 2, 3]
        futures = [pool.submit(slot, rendezvous) for slot in slots]
        assert len({f.result(timeout=10) for f in futures}) == 4

    def test_a_reused_slot_runs_the_previous_close_first(self):
        pool = aionet._DaemonDispatchPool(4, name="test-pool")
        busy, order = threading.Event(), []
        first = pool.bind()
        pool.submit(first, busy.wait, 10)  # the departing connection's last message
        pool.submit(first, order.append, "close")
        pool.release(first)
        second = pool.bind()
        assert second is first
        done = pool.submit(second, order.append, "first message")
        busy.set()
        done.result(timeout=10)
        assert order == ["close", "first message"]

    def test_a_full_pool_shares_the_least_loaded_slot(self):
        pool = aionet._DaemonDispatchPool(2, name="test-pool")
        slots = [pool.bind() for _ in range(3)]
        assert [slot.index for slot in slots] == [0, 1, 0]
        pool.release(slots[1])
        # Loads are now [2, 0]: slot 1 takes the next two, then the tie goes low.
        assert [pool.bind().index for _ in range(3)] == [1, 1, 0]

    def test_exceptions_propagate_through_futures(self):
        pool = aionet._DaemonDispatchPool(2, name="test-pool")
        slot = pool.bind()

        def boom():
            raise ValueError("kaput")

        with pytest.raises(ValueError, match="kaput"):
            pool.submit(slot, boom).result(timeout=10)
        # The worker survives its task's exception.
        assert pool.submit(slot, lambda: 42).result(timeout=10) == 42


class TestOneThreadPerLiveConnection:
    """Real sockets, in this process: sequential clients share one dispatch
    thread, and behind a router they share its upstream socket too."""

    def test_twenty_sequential_clients_leave_one_dispatch_thread(self, async_server):
        host, port = async_server.address
        for index in range(20):
            with ServingClient(host, port, wire="binary") as client:
                outputs = client.submit("poly", {"x": [float(index)]})
            np.testing.assert_allclose(outputs["y"][:1], [index * index + index + 1.0], atol=1e-6)
            wait_until(lambda: not async_server.connection_infos())
        with ServingClient(host, port, wire="json") as client:
            assert client.stats()["dispatch"] == {"threads": 1}
            assert gauge(client.metrics()["metrics"], "serving.dispatch.threads") == 1

    def test_relayed_upload_ids_stay_per_client_on_a_shared_upstream(self, async_server, monkeypatch):
        """Three clients, one after another, through a one-shard router: all
        three run on one router thread and its one upstream socket, and the
        shard sees each client's ``up-1`` under that client's connection key."""
        seen = []
        add_chunk = wire.UploadState.add_chunk

        def recording(state, envelope, data):
            seen.append(envelope["upload"])
            return add_chunk(state, envelope, data)

        monkeypatch.setattr(wire.UploadState, "add_chunk", recording)
        cluster = ThreadKeyedCluster(async_server.address)
        router = netserver.ClusterTcpServer(cluster)
        router.start_background()
        try:
            host, port = router.address
            for index in range(3):
                with socket.create_connection((host, port), timeout=10) as sock:
                    for data in chunked_submit(wire.BINARY, f"relayed-{index}"):
                        sock.sendall(data)
                    message = wire.read_message(wire.FrameDecoder(), sock.recv)
                framing, _type, raw, _n = wire.open_message(message)
                outputs_are([3.0, 7.0])(messages.finish_response(framing.decode(raw, framing.peek(raw))))
                wait_until(lambda: not router.connection_infos())
            assert len(set(seen)) == 3 and all(upload_id.endswith("/up-1") for upload_id in seen)
            assert len(cluster.upstreams) == 1, "one router thread, one upstream socket"
            assert router.telemetry.registry.gauge_value("serving.dispatch.threads") == 1
            assert async_server.telemetry.registry.gauge_value("serving.dispatch.threads") == 1
        finally:
            router.shutdown()
            for upstream in cluster.upstreams.values():
                upstream.close()


class ThreadKeyedCluster:
    """A cluster's forwarding as the router uses it, to one in-process shard:
    one upstream connection per router thread, kept for the thread's life."""

    def __init__(self, address):
        self.address = address
        self.recipe = ShardConfig()
        self.upstreams = {}

    def _call(self, client_id, fn):
        upstream = self.upstreams.get(threading.get_ident())
        if upstream is None:
            upstream = self.upstreams[threading.get_ident()] = ServingClient(*self.address)
        return fn(upstream)


def wait_until(condition, seconds=10):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def gauge(snapshot, name):
    return sum(entry["value"] for entry in snapshot["gauges"] if entry["name"] == name)


# -- abrupt disconnects and idle crowds ----------------------------------------


class TestAsyncServerRobustness:
    def test_disconnect_mid_binary_frame(self, async_server):
        host, port = async_server.address
        sock = socket.create_connection((host, port), timeout=5)
        # Declare a 1000-byte frame, send 10 bytes, vanish.
        sock.sendall(
            bytes([wire.MAGIC, wire.FRAME_REQUEST]) + encode_varint(1000) + b"x" * 10
        )
        sock.close()
        self._assert_still_serving(async_server)

    def test_disconnect_mid_json_line(self, async_server):
        host, port = async_server.address
        sock = socket.create_connection((host, port), timeout=5)
        sock.sendall(b'{"op": "ping"')  # no newline, never will be
        sock.close()
        self._assert_still_serving(async_server)

    def test_garbage_first_byte_drops_the_connection_only(self, async_server):
        host, port = async_server.address
        sock = socket.create_connection((host, port), timeout=5)
        sock.sendall(b"\xff\xfe\xfd not a protocol\n")
        # The server must close this connection rather than hang on it.
        sock.settimeout(5)
        assert sock.recv(1) == b""
        sock.close()
        self._assert_still_serving(async_server)

    def test_idle_crowd_plus_mixed_traffic(self, async_server):
        host, port = async_server.address
        idle = [socket.create_connection((host, port), timeout=5) for _ in range(50)]
        try:
            deadline = 50
            for _ in range(deadline):
                if len(async_server.connection_infos()) >= 50:
                    break
                threading.Event().wait(0.05)
            assert len(async_server.connection_infos()) >= 50
            for mode in ("json", "binary"):
                with ServingClient(host, port, wire=mode) as client:
                    outputs = client.submit("poly", {"x": [2.0]})
                np.testing.assert_allclose(outputs["y"][:1], [7.0], atol=1e-6)
            still_idle = sum(
                1 for info in async_server.connection_infos() if info["requests"] == 0
            )
            assert still_idle >= 50
        finally:
            for sock in idle:
                sock.close()

    def _assert_still_serving(self, tcp):
        host, port = tcp.address
        with ServingClient(host, port, wire="binary") as client:
            outputs = client.submit("poly", {"x": [1.0]})
        np.testing.assert_allclose(outputs["y"][:1], [3.0], atol=1e-6)
