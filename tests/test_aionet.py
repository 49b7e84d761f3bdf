"""Tests for the listener (:mod:`repro.serving.aionet`) and what it drives.

The protocol matrix (negotiation, chunked uploads, mixed JSON+binary
clients) and the socket-free frame-decoder matrix live in ``test_wire.py``.
This file covers the two halves the listener joins — sans-IO connection
objects driven with no network at all, and connection->worker affinity in
the dispatch pool — and then the real thing: abrupt disconnects mid-frame
and mid-line, and an idle crowd served alongside live traffic.
"""

import json
import socket
import threading

import numpy as np
import pytest

from repro import wire
from repro.backend import MockBackend
from repro.core.serialization import messages
from repro.core.serialization.packing import raw_blobs
from repro.frontend import EvaProgram, input_encrypted, output
from repro.serving import EvaServer, EvaTcpServer, ServingClient
from repro.serving import aionet, netserver
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
    """What a connection object needs from its listener — no socket in sight."""

    wire_policy = "auto"

    def __init__(self, eva_server):
        self.eva_server = eva_server

    def connection_infos(self):
        return []


def decode_reply(data):
    decoder = wire.FrameDecoder()
    decoder.feed(data)
    message = decoder.next_message()
    assert decoder.pending == 0 and decoder.next_message() is None
    return message


class TestSansIoConnection:
    """The protocol runs with no network: decoded message in, reply bytes out."""

    @pytest.fixture
    def conn(self):
        server = make_server()
        try:
            yield netserver._ShardConnection(FakeListener(server), 1, "test:0")
        finally:
            server.close()

    def test_json_line_in_json_line_out(self, conn):
        reply, keep_open = conn.handle(("json", b'{"op":"ping"}\n'))
        assert keep_open and reply.endswith(b"\n")
        assert json.loads(reply) == {"ok": True, "pong": True}
        assert (conn.protocol, conn.requests) == ("json", 1)
        assert (conn.bytes_received, conn.bytes_sent) == (14, len(reply))

    def test_blank_and_undecodable_lines(self, conn):
        assert conn.handle(("json", b"  \n")) == (b"", True)
        assert conn.handle(("json", b"\xff\xfe\n")) == (b"", False)

    def test_binary_reply_is_owned_bytes_valid_after_raw_blobs_exits(self, conn):
        # The reply's blob parts are views that live only inside the
        # connection's raw_blobs context; what it returns is one bytes object
        # built there, so it decodes long after the context is gone.
        with raw_blobs():
            request = messages.build_request(
                "submit", pack_inputs=True, program="poly", inputs={"x": [1.0, 2.0]}
            )
        frame = wire.encode_frame(wire.FRAME_REQUEST, *wire.encode_message(request))
        _kind, frame_type, payload, nbytes = decode_reply(frame)
        reply, keep_open = conn.handle(("frame", frame_type, payload, nbytes))
        assert keep_open and isinstance(reply, bytes)
        assert conn.protocol == "binary"
        assert (conn.bytes_received, conn.bytes_sent) == (len(frame), len(reply))
        _kind, reply_type, reply_payload, _n = decode_reply(reply)
        assert reply_type == wire.FRAME_RESPONSE
        response = messages.finish_response(
            wire.rehydrate(*wire.decode_message(reply_payload))
        )
        np.testing.assert_allclose(response["outputs"]["y"][:2], [3.0, 7.0], atol=1e-6)

    def test_errors_are_typed_replies_in_the_request_framing(self, conn):
        reply, keep_open = conn.handle(("json", b"{not json\n"))
        assert keep_open and json.loads(reply)["kind"] == "SerializationError"
        frame = wire.encode_frame(wire.FRAME_RESPONSE, wire.encode_envelope({"op": "ping"}))
        reply, keep_open = conn.handle(decode_reply(frame))
        envelope, _blobs = wire.decode_message(decode_reply(reply)[2])
        assert keep_open and envelope["kind"] == "TransportError"
        # A malformed chunk cannot be answered: the connection closes.
        chunk = wire.encode_frame(wire.FRAME_CHUNK, b"\xff\xff")
        assert conn.handle(decode_reply(chunk)) == (b"", False)


class TestDispatchPoolAffinity:
    def test_same_affinity_runs_on_one_thread_in_order(self):
        pool = aionet._DaemonDispatchPool(4, name="test-pool")
        seen, order = [], []

        def record(value):
            seen.append(threading.get_ident())
            order.append(value)
            return value

        futures = [pool.submit(7, record, i) for i in range(32)]
        assert [f.result(timeout=10) for f in futures] == list(range(32))
        assert len(set(seen)) == 1, "one connection must stay on one thread"
        assert order == list(range(32)), "per-connection order must hold"

    def test_distinct_affinities_spread_over_threads(self):
        pool = aionet._DaemonDispatchPool(4, name="test-pool")
        barrier = threading.Barrier(4, timeout=10)

        def rendezvous():
            barrier.wait()
            return threading.get_ident()

        futures = [pool.submit(a, rendezvous) for a in range(4)]
        idents = {f.result(timeout=10) for f in futures}
        assert len(idents) == 4

    def test_exceptions_propagate_through_futures(self):
        pool = aionet._DaemonDispatchPool(2, name="test-pool")

        def boom():
            raise ValueError("kaput")

        with pytest.raises(ValueError, match="kaput"):
            pool.submit(0, boom).result(timeout=10)
        # The worker survives its task's exception.
        assert pool.submit(0, lambda: 42).result(timeout=10) == 42


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
