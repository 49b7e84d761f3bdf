"""Tests for the binary wire protocol: frames, codec, hellos, uploads.

Property/fuzz coverage of the varint codec and of the socket-free frame
decoder (roundtrips on random values under every way a stream can be cut up;
truncated/oversized/garbage input raises a clean ``TransportError``, never
hangs or over-reads), the envelope+blob message codec, a binary client that
opens with its first frame and the answer to an earlier build's hello,
chunked streaming uploads, and mixed-protocol serving — one JSON client and
one binary client concurrently on the same router.
"""

import io
import json
import random
import socket
import threading

import numpy as np
import pytest

from repro import wire
from repro.api import ClientKit, CompiledProgram
from repro.backend import MockBackend
from repro.backend.seal_backend import CkksBackend
from repro.core import CompilerOptions
from repro.core.serialization import messages
from repro.core.serialization import wire as core_wire
from repro.core.serialization.packing import (
    jsonable_blobs,
    pack_values,
    raw_blobs,
    unpack_values,
)
from repro.errors import SerializationError, ServingError, TransportError
from repro.frontend import EvaProgram, input_encrypted, output
from repro.serving import (
    BackendSpec,
    ClusterTcpServer,
    EvaCluster,
    EvaServer,
    EvaTcpServer,
    ServingClient,
)
from repro.wire.frames import encode_varint


def make_poly_program(name="poly", vec_size=32):
    program = EvaProgram(name, vec_size=vec_size, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", x * x + x + 1.0, 25)
    return program


def record_sends(monkeypatch):
    """Every message a ``ServingClient`` of this process writes from now on,
    by client: ``[(its wire mode, the message's framing, frame type), ...]``."""
    sent = {}
    send = ServingClient.send

    def spy(client, framing, frame_type, parts):
        sent.setdefault(client, []).append((client.protocol, framing.name, frame_type))
        return send(client, framing, frame_type, parts)

    monkeypatch.setattr(ServingClient, "send", spy)
    return sent


# -- varints -------------------------------------------------------------------


class TestVarints:
    """The frame header and the blob records share the one varint codec."""

    def test_frame_layer_uses_the_core_codec(self):
        assert wire.frames.encode_varint is core_wire.encode_varint
        assert wire.frames.decode_varint is core_wire.decode_varint
        assert wire.codec.encode_varint is core_wire.encode_varint

    def test_roundtrip_on_random_values(self):
        rng = random.Random(7)
        values = [0, 1, 127, 128, 300, 2**32, 2**63 - 1]
        values += [rng.getrandbits(rng.randint(1, 63)) for _ in range(500)]
        for value in values:
            data = encode_varint(value)
            # Trailing bytes are not over-read.
            assert core_wire.decode_varint(data + b"\xff", 0) == (value, len(data))

    def test_encoding_is_minimal_length(self):
        assert encode_varint(0) == b"\x00"
        assert encode_varint(127) == b"\x7f"
        assert encode_varint(128) == b"\x80\x01"
        assert encode_varint(300) == b"\xac\x02"

    def test_negative_rejected(self):
        with pytest.raises(SerializationError):
            encode_varint(-1)

    def test_truncated_varint_raises_cleanly(self):
        # Every proper prefix that ends on a continuation byte must raise.
        data = encode_varint(2**40)
        for cut in range(len(data) - 1):
            with pytest.raises(SerializationError):
                core_wire.decode_varint(data[:cut], 0)

    def test_overlong_varint_raises(self):
        with pytest.raises(SerializationError):
            core_wire.decode_varint(b"\x80" * 11, 0)

    def test_payload_varint_errors_surface_as_transport_errors(self):
        # Inside a frame payload the same failures are the frame boundary's.
        for payload in (b"\x0a", b"\x0a\x80", b"\x80" * 11, b"\x0a\x05ab"):
            with pytest.raises(TransportError):
                wire.decode_message(payload)


# -- the frame decoder (socket-free) -------------------------------------------

FRAME_TYPES = [wire.FRAME_REQUEST, wire.FRAME_RESPONSE, wire.FRAME_CHUNK]


def chunkings(data, rng):
    """The ways a stream can arrive: at once, byte by byte, at random cuts."""
    yield [data]
    yield [data[i : i + 1] for i in range(len(data))]
    for _ in range(3):
        cuts = sorted(rng.randint(0, len(data)) for _ in range(rng.randint(1, 8)))
        yield [data[a:b] for a, b in zip([0] + cuts, cuts + [len(data)])]


def drain(decoder):
    """Every message the decoder can complete from what it has been fed."""
    out = []
    while True:
        message = decoder.next_message()
        if message is None:
            return out
        out.append(message)


def decode_stream(pieces):
    decoder = wire.FrameDecoder()
    out = []
    for piece in pieces:
        decoder.feed(piece)
        out.extend(drain(decoder))
    return out, decoder


def header(frame_type, length):
    return bytes([wire.MAGIC, frame_type]) + encode_varint(length)


class TestFrameDecoder:
    """One matrix over the one parser: the listener, the blocking client and
    these tests all pump :class:`repro.wire.FrameDecoder`."""

    def test_roundtrip_random_payloads_under_every_chunking(self):
        rng = random.Random(11)
        for _ in range(50):
            payload = rng.randbytes(rng.randint(0, 4096))
            frame_type = rng.choice(FRAME_TYPES)
            encoded = wire.encode_frame(frame_type, payload)
            for pieces in chunkings(encoded, rng):
                messages_out, decoder = decode_stream(pieces)
                assert messages_out == [("frame", frame_type, payload, len(encoded))]
                assert decoder.pending == 0

    def test_wire_size_includes_the_sniffed_magic(self):
        payload = b"x" * 300
        encoded = wire.encode_frame(wire.FRAME_REQUEST, payload)
        [(kind, frame_type, got, nbytes)], _ = decode_stream([encoded])
        assert (kind, frame_type, bytes(got)) == ("frame", wire.FRAME_REQUEST, payload)
        assert nbytes == len(encoded)

    def test_never_overreads_into_the_next_message(self):
        first = wire.encode_frame(wire.FRAME_REQUEST, b"abc")
        second = wire.encode_frame(wire.FRAME_RESPONSE, b"defgh")
        decoder = wire.FrameDecoder()
        decoder.feed(first + second[:4])
        assert decoder.next_message() == ("frame", wire.FRAME_REQUEST, b"abc", len(first))
        assert decoder.pending == 4  # the next frame's bytes, untouched
        assert decoder.next_message() is None
        decoder.feed(second[4:])
        assert decoder.next_message() == ("frame", wire.FRAME_RESPONSE, b"defgh", len(second))

    def test_piecewise_write_equals_encode_frame(self):
        parts = [b"abc", bytearray(b"defg"), memoryview(b"hi")]
        stream = io.BytesIO()
        nbytes = wire.BINARY.write(stream, wire.FRAME_REQUEST, parts)
        assert stream.getvalue() == wire.encode_frame(
            wire.FRAME_REQUEST, b"abcdefghi"
        )
        assert stream.getvalue() == wire.encode_frame(wire.FRAME_REQUEST, *parts)
        assert nbytes == len(stream.getvalue())

    def test_reply_built_from_views_outlives_the_buffers_behind_them(self):
        # Connection objects hand the listener bytes, not views: a reply's
        # parts are copied once, at build time, so what the event loop writes
        # later is unaffected by the raw_blobs context ending and the buffers
        # behind relayed blob slices being reused.
        backing = bytearray(b"\x07" * 64)
        with raw_blobs():
            message = {"ok": True, "outputs": {"y": pack_values([1.0, 2.0, 3.0])}}
            parts = wire.encode_message(message) + [memoryview(backing)[8:40]]
            expected = b"".join(bytes(part) for part in parts)
            reply = wire.encode_frame(wire.FRAME_RESPONSE, *parts)
        backing[:] = b"X" * 64
        del message, parts
        [(_kind, frame_type, payload, nbytes)], _ = decode_stream([reply])
        assert frame_type == wire.FRAME_RESPONSE and nbytes == len(reply)
        assert payload == expected

    def test_truncated_at_every_cut_needs_more_then_fails_at_eof(self):
        encoded = wire.encode_frame(wire.FRAME_REQUEST, b"x" * 100)
        for cut in range(len(encoded)):
            messages_out, decoder = decode_stream([encoded[:cut]])
            assert messages_out == [] and decoder.pending == cut
            # The blocking pump turns end-of-stream into a clean error...
            with pytest.raises(TransportError, match="closed"):
                wire.read_message(wire.FrameDecoder(), io.BytesIO(encoded[:cut]).read)
            # ...and the rest of the bytes complete the message.
            decoder.feed(encoded[cut:])
            assert drain(decoder) == [
                ("frame", wire.FRAME_REQUEST, b"x" * 100, len(encoded))
            ]

    def test_truncated_varint_needs_more_bytes(self):
        data = header(wire.FRAME_REQUEST, wire.MAX_FRAME_BYTES)  # a 5-byte varint
        for cut in range(2, len(data)):
            assert decode_stream([data[:cut]])[0] == []

    def test_blocking_pump_reads_messages_in_order(self):
        first = wire.encode_frame(wire.FRAME_RESPONSE, b"abcdef")
        stream = io.BytesIO(first + b'{"ok":true}\n')
        decoder = wire.FrameDecoder()
        assert wire.read_message(decoder, stream.read) == (
            "frame", wire.FRAME_RESPONSE, b"abcdef", len(first)
        )
        assert wire.read_message(decoder, stream.read) == ("json", b'{"ok":true}\n')
        with pytest.raises(TransportError, match="closed by server"):
            wire.read_message(decoder, stream.read)

    def test_oversized_declared_length_rejected_from_the_header_alone(self):
        # A hostile header declaring a huge payload must be rejected before
        # the decoder waits for (or allocates) the body.
        data = header(wire.FRAME_REQUEST, wire.MAX_FRAME_BYTES + 1)
        for pieces in chunkings(data, random.Random(3)):
            with pytest.raises(TransportError, match="limit"):
                decode_stream(pieces)
        assert decode_stream([header(wire.FRAME_REQUEST, wire.MAX_FRAME_BYTES)])[0] == []

    def test_oversized_json_line_rejected(self, monkeypatch):
        monkeypatch.setattr(wire.frames, "MAX_FRAME_BYTES", 64)
        decoder = wire.FrameDecoder()
        decoder.feed(b"{" + b"x" * 63)
        assert decoder.next_message() is None
        decoder.feed(b"x")
        with pytest.raises(TransportError, match="limit"):
            decoder.next_message()

    def test_first_byte_sniff_and_unknown_frame_type(self):
        # Anything not starting with the magic byte is a JSON line...
        assert decode_stream([b"{not a frame}\n"])[0] == [("json", b"{not a frame}\n")]
        # ...and a magic byte must be followed by a known frame type.
        with pytest.raises(TransportError, match="frame type"):
            decode_stream([bytes([wire.MAGIC, 0x7F, 0x00])])
        with pytest.raises(TransportError, match="frame type"):
            decode_stream([bytes([wire.MAGIC, 0x7F])])

    def test_overlong_varint_rejected(self):
        for tail in (b"\x80" * 10, b"\x80" * 10 + b"\x01", b"\x80" * 11):
            data = bytes([wire.MAGIC, wire.FRAME_REQUEST]) + tail
            for pieces in chunkings(data, random.Random(5)):
                with pytest.raises(TransportError, match="varint"):
                    decode_stream(pieces)
        # Nine continuation bytes could still end legally: no verdict yet.
        assert decode_stream([bytes([wire.MAGIC, wire.FRAME_REQUEST]) + b"\x80" * 9])[0] == []

    def test_fuzz_garbage_never_hangs_or_overreads(self):
        rng = random.Random(13)
        for round_ in range(400):
            blob = rng.randbytes(rng.randint(0, 64))
            if round_ % 2:  # random bytes rarely start a frame on their own
                blob = bytes([wire.MAGIC, rng.choice(FRAME_TYPES)]) + blob
            for pieces in chunkings(blob, rng):
                decoder = wire.FrameDecoder()
                consumed = 0
                try:
                    for piece in pieces:
                        decoder.feed(piece)
                        for message in drain(decoder):
                            consumed += len(message[1]) if message[0] == "json" else message[3]
                except TransportError:
                    continue  # the only acceptable failure mode
                assert consumed + decoder.pending == len(blob)

    def test_interleaved_json_lines_and_frames(self):
        rng = random.Random(23)
        for _ in range(20):
            expected, stream = [], b""
            for _ in range(rng.randint(1, 12)):
                if rng.random() < 0.5:
                    line = json.dumps({"op": "ping", "n": rng.randint(0, 10**6)}).encode() + b"\n"
                    expected.append(("json", line))
                    stream += line
                else:
                    payload = rng.randbytes(rng.randint(0, 300))
                    frame_type = rng.choice(FRAME_TYPES)
                    encoded = wire.encode_frame(frame_type, payload)
                    expected.append(("frame", frame_type, payload, len(encoded)))
                    stream += encoded
            for pieces in chunkings(stream, rng):
                messages_out, decoder = decode_stream(pieces)
                assert messages_out == expected
                assert decoder.pending == 0

    def test_oversized_payload_refused_on_write(self):
        class Huge:
            def __len__(self):
                return wire.MAX_FRAME_BYTES + 1

        with pytest.raises(TransportError):
            wire.BINARY.write(io.BytesIO(), wire.FRAME_REQUEST, [Huge()])
        with pytest.raises(TransportError, match="frame type"):
            wire.encode_frame(0x7F, b"")


# -- message codec -------------------------------------------------------------


def random_message(rng):
    """A random request-like dict with packed arrays at random depths."""

    def node(depth):
        roll = rng.random()
        if depth > 2 or roll < 0.35:
            if roll < 0.12:
                return pack_values([rng.uniform(-9, 9) for _ in range(rng.randint(1, 40))])
            return rng.choice([None, True, rng.randint(-1000, 1000), "text", 3.5])
        if roll < 0.7:
            return {f"k{i}": node(depth + 1) for i in range(rng.randint(0, 4))}
        return [node(depth + 1) for i in range(rng.randint(0, 4))]

    return {
        "op": "submit",
        "program": "p",
        "payload": node(0),
        "inputs": {"x": pack_values([rng.random() for _ in range(rng.randint(1, 64))])},
    }


class TestMessageCodec:
    def test_roundtrip_random_nested_messages(self):
        rng = random.Random(17)
        for _ in range(30):
            with raw_blobs():
                message = random_message(rng)
            parts = wire.encode_message(message)
            payload = b"".join(bytes(part) for part in parts)
            envelope, blobs = wire.decode_message(payload)
            restored = wire.rehydrate(envelope, blobs)
            # Raw records survive the trip bit-exactly (as memoryviews).
            assert jsonable_blobs(restored) == jsonable_blobs(message)

    def test_blobs_decode_zero_copy(self):
        with raw_blobs():
            message = {"op": "submit", "inputs": {"x": pack_values([1.0, 2.0, 3.0])}}
        payload = b"".join(bytes(p) for p in wire.encode_message(message))
        _envelope, blobs = wire.decode_message(payload)
        assert len(blobs) == 1
        assert isinstance(blobs[0], memoryview)
        np.testing.assert_allclose(
            unpack_values({"dtype": "f8", "raw": blobs[0]}), [1.0, 2.0, 3.0]
        )

    def test_base64_records_are_lifted_to_raw_blobs(self):
        # A payload built for the JSON wire (b64 records) still gains the
        # binary size win when sent through the binary codec.
        message = {"op": "submit", "inputs": {"x": pack_values([4.0, 5.0])}}
        assert "b64" in message["inputs"]["x"]
        parts = wire.encode_message(message)
        payload = b"".join(bytes(p) for p in parts)
        envelope, blobs = wire.decode_message(payload)
        assert len(blobs) == 1
        restored = wire.rehydrate(envelope, blobs)
        np.testing.assert_allclose(
            unpack_values(restored["inputs"]["x"]), [4.0, 5.0]
        )

    def test_envelope_must_be_present_and_unique(self):
        with pytest.raises(TransportError, match="no envelope"):
            wire.decode_message(b"")
        env = wire.encode_envelope({"op": "ping"})
        with pytest.raises(TransportError, match="two envelopes"):
            wire.decode_message(env + env)

    def test_peek_and_replace_envelope_preserve_blobs(self):
        with raw_blobs():
            message = {
                "op": "submit",
                "client_id": "alice",
                "inputs": {"x": pack_values([7.0, 8.0])},
            }
        payload = b"".join(bytes(p) for p in wire.encode_message(message))
        envelope, end = wire.peek_envelope(payload)
        assert envelope["op"] == "submit"
        assert end < len(payload)
        envelope["trace_id"] = "t-123"
        spliced = b"".join(
            bytes(p) for p in wire.replace_envelope(payload, envelope)
        )
        new_envelope, blobs = wire.decode_message(spliced)
        assert new_envelope["trace_id"] == "t-123"
        restored = wire.rehydrate(new_envelope, blobs)
        np.testing.assert_allclose(
            unpack_values(restored["inputs"]["x"]), [7.0, 8.0]
        )

    def test_bad_blob_reference_raises(self):
        with pytest.raises(TransportError):
            wire.rehydrate({"x": {"dtype": "f8", wire.BLOB_KEY: 3}}, [])

    def test_fuzz_garbage_payloads_raise_cleanly(self):
        rng = random.Random(19)
        for _ in range(300):
            blob = rng.randbytes(rng.randint(0, 80))
            try:
                wire.decode_message(blob)
            except TransportError:
                pass  # the only acceptable failure mode


# -- an earlier client's hello ------------------------------------------------

#: The hellos earlier builds' clients opened with, field for field: ``auto``
#: (their default) or ``binary``, before and after the ``features`` field.
EARLIER_HELLOS = [
    {"op": "hello", "wire": "auto", "versions": [1]},
    {"op": "hello", "wire": "binary", "versions": [1]},
    {"op": "hello", "wire": "auto", "versions": [1], "features": ["seeded", "bitpacked"]},
    {"op": "hello", "wire": "binary", "versions": [1], "features": ["seeded"]},
]


class TestEarlierHello:
    @pytest.mark.parametrize("hello", EARLIER_HELLOS)
    def test_an_earlier_hello_is_acked_binary(self, hello):
        assert wire.hello_ack(hello) == {"ok": True, "wire": "binary", "version": 1}

    def test_hello_ack_answers_a_json_hello_in_json(self):
        hello = {"op": "hello", "wire": "json", "versions": [1]}
        assert wire.hello_ack(hello) == {"ok": True, "wire": "json"}

    def test_hello_ack_refuses_unknown_versions(self):
        hello = {"op": "hello", "wire": "binary", "versions": [99]}
        assert wire.hello_ack(hello)["wire"] == "json"


# -- chunked uploads -----------------------------------------------------------


class TestUploadState:
    def chunk(self, state, upload, blob, data, eof=False):
        state.add_chunk({"upload": upload, "blob": blob, "eof": eof}, data)

    def test_interleaved_blobs_assemble_in_order(self):
        state = wire.UploadState()
        self.chunk(state, "u1", 0, b"aa")
        self.chunk(state, "u1", 1, b"xx")
        self.chunk(state, "u1", 0, b"bb", eof=True)
        self.chunk(state, "u1", 1, b"yy", eof=True)
        blobs = state.finish("u1")
        assert [bytes(b) for b in blobs] == [b"aabb", b"xxyy"]
        assert len(state) == 0

    def test_unknown_and_incomplete_uploads_raise(self):
        state = wire.UploadState()
        with pytest.raises(SerializationError, match="unknown upload"):
            state.finish("nope")
        self.chunk(state, "u1", 0, b"aa")  # no eof
        with pytest.raises(SerializationError, match="incomplete"):
            state.finish("u1")

    def test_byte_cap_poisons_the_upload(self, monkeypatch):
        monkeypatch.setattr(wire.protocol, "MAX_UPLOAD_BYTES", 10)
        state = wire.UploadState()
        self.chunk(state, "u1", 0, b"x" * 20, eof=True)
        with pytest.raises(SerializationError, match="cap"):
            state.finish("u1")

    def test_out_of_order_blob_index_poisons(self):
        state = wire.UploadState()
        self.chunk(state, "u1", 2, b"zz")
        with pytest.raises(SerializationError, match="out of order"):
            state.finish("u1")

    def test_append_after_eof_poisons(self):
        state = wire.UploadState()
        self.chunk(state, "u1", 0, b"aa", eof=True)
        self.chunk(state, "u1", 0, b"bb")
        with pytest.raises(SerializationError, match="finished"):
            state.finish("u1")

    def test_too_many_concurrent_uploads_poisons_the_extra(self, monkeypatch):
        monkeypatch.setattr(wire.protocol, "MAX_OPEN_UPLOADS", 2)
        state = wire.UploadState()
        self.chunk(state, "u1", 0, b"a", eof=True)
        self.chunk(state, "u2", 0, b"b", eof=True)
        self.chunk(state, "u3", 0, b"c", eof=True)
        assert [bytes(b) for b in state.finish("u1")] == [b"a"]
        with pytest.raises(SerializationError, match="concurrent uploads"):
            state.finish("u3")

    def test_poisoned_records_are_bounded(self):
        # Over-cap ids are remembered so their request gets an answer, but
        # only up to a constant: a peer minting fresh ids forever is dropped.
        state = wire.UploadState()
        for index in range(wire.MAX_TRACKED_UPLOADS):
            self.chunk(state, f"u{index}", 0, b"x")
        assert len(state) == wire.MAX_TRACKED_UPLOADS
        self.chunk(state, "u0", 0, b"y", eof=True)  # known ids still assemble
        with pytest.raises(TransportError, match="unclaimed uploads"):
            self.chunk(state, "one-too-many", 0, b"x")
        assert len(state) == wire.MAX_TRACKED_UPLOADS
        assert [bytes(b) for b in state.finish("u0")] == [b"xy"]
        with pytest.raises(SerializationError, match="concurrent uploads"):
            state.finish(f"u{wire.MAX_TRACKED_UPLOADS - 1}")
        self.chunk(state, "room-again", 0, b"x")  # claimed records free their slot

    def test_a_peer_that_mints_namespaces_is_cut_off(self):
        # The caps are per namespace and the peer writes the namespace, so the
        # connection as a whole has ceilings of its own: ids ...
        state = wire.UploadState()
        with pytest.raises(TransportError, match="1024 unclaimed uploads"):
            for index in range(1500):
                self.chunk(state, f"{index}/x", 0, b"x")
        assert len(state) == wire.protocol.MAX_CONNECTION_UPLOADS == 1024
        self.chunk(state, "0/x", 0, b"y", eof=True)  # known ids still assemble
        assert [bytes(b) for b in state.finish("0/x")] == [b"xy"]

    def test_buffered_bytes_are_bounded_across_namespaces(self, monkeypatch):
        # ... and bytes: what MAX_OPEN_UPLOADS full uploads come to, however
        # many namespaces they are spread over.
        monkeypatch.setattr(wire.protocol, "MAX_UPLOAD_BYTES", 10)
        monkeypatch.setattr(wire.protocol, "MAX_CONNECTION_UPLOAD_BYTES", 40)
        state = wire.UploadState()
        for index in range(4):  # one namespace can fill its own allowance exactly
            self.chunk(state, f"u{index}", 0, b"x" * 10, eof=True)
        self.chunk(state, "1/u", 0, b"y" * 8)  # fits its namespace, not the connection
        self.chunk(state, "1/u", 0, b"y", eof=True)  # poisoned: nothing more is buffered
        with pytest.raises(SerializationError, match="connection buffers more than 40 upload bytes"):
            state.finish("1/u")
        assert state._buffered == 40
        assert [bytes(b) for b in state.finish("u0")] == [b"x" * 10]  # claimed bytes are given back
        self.chunk(state, "2/u", 0, b"z" * 10, eof=True)
        state.add_chunk({"upload": "u1", "discard": True}, b"")
        self.chunk(state, "3/u", 0, b"w" * 10, eof=True)  # so are discarded ones
        assert [bytes(b) for b in state.finish("3/u")] == [b"w" * 10]
        for upload_id in ("2/u", "u2", "u3"):
            state.finish(upload_id)
        assert state._buffered == 0 and len(state) == 0

    def test_iter_chunks_covers_blob_exactly(self):
        blob = bytes(range(256)) * 5
        chunks = list(wire.iter_chunks(blob, size=100))
        assert all(len(c) <= 100 for c in chunks)
        assert b"".join(bytes(c) for c in chunks) == blob
        assert list(wire.iter_chunks(b"", size=4)) == [memoryview(b"")]


# -- end-to-end over TCP -------------------------------------------------------


@pytest.fixture
def tcp_server():
    server = EvaServer(backend=MockBackend(error_model="none"), workers=2)
    server.register("poly", make_poly_program())
    tcp = EvaTcpServer(server, port=0)
    tcp.start_background()
    try:
        yield tcp
    finally:
        tcp.shutdown()
        server.close()


class TestServingOverBinaryWire:
    def test_the_default_client_speaks_binary_frames_only(self, tcp_server):
        host, port = tcp_server.address
        with ServingClient(host, port) as client:
            assert client.protocol == "binary"
            outputs = client.submit("poly", {"x": [1.0, 2.0]})
        np.testing.assert_allclose(outputs["y"], [3.0, 7.0], atol=1e-6)
        received = tcp_server.telemetry.registry.counter_value
        assert received("net.bytes_received", protocol="json") == 0
        assert received("net.bytes_received", protocol="binary") == client.bytes_sent > 0

    def test_a_binary_client_opens_with_its_first_frame(self):
        """No hello: the first byte a binary client writes is the frame magic,
        and its first message is the request it was asked to send."""
        answers = []
        with socket.create_server(("127.0.0.1", 0)) as listener:
            with ServingClient(*listener.getsockname()[:2], timeout=10) as client:
                peer, _address = listener.accept()
                with peer:
                    caller = threading.Thread(target=lambda: answers.append(client.ping()))
                    caller.start()
                    assert peer.recv(1, socket.MSG_PEEK) == bytes([wire.MAGIC])
                    message = wire.read_message(wire.FrameDecoder(), peer.recv)
                    framing, frame_type, raw, _nbytes = wire.open_message(message)
                    assert (framing, frame_type) == (wire.BINARY, wire.FRAME_REQUEST)
                    assert framing.peek(raw)["op"] == "ping"
                    pong = wire.BINARY.parts({"ok": True, "pong": True})
                    peer.sendall(wire.BINARY.encode(wire.FRAME_RESPONSE, pong))
                    caller.join(timeout=10)
        assert answers == [True]

    def test_binary_and_json_clients_agree(self, tcp_server):
        host, port = tcp_server.address
        x = [float(i) for i in range(8)]
        with ServingClient(host, port, wire="binary") as binary_client:
            with ServingClient(host, port, wire="json") as json_client:
                binary_out = binary_client.submit("poly", {"x": x})
                json_out = json_client.submit("poly", {"x": x})
        np.testing.assert_allclose(binary_out["y"], json_out["y"], atol=1e-6)

    def test_byte_counters_and_net_metrics(self, tcp_server):
        host, port = tcp_server.address
        with ServingClient(host, port, wire="binary") as client:
            client.submit("poly", {"x": [1.0, 2.0]})
            assert client.bytes_sent > 0
            assert client.bytes_received > 0
            metrics = client.metrics()["metrics"]
        counters = {
            (c["name"], c["labels"].get("protocol")): c["value"]
            for c in metrics["counters"]
        }
        assert counters.get(("net.bytes_received", "binary"), 0) > 0
        assert counters.get(("net.bytes_sent", "binary"), 0) > 0

    def test_stats_reports_connection_protocols(self, tcp_server):
        host, port = tcp_server.address
        with ServingClient(host, port, wire="binary") as binary_client:
            with ServingClient(host, port, wire="json") as json_client:
                binary_client.ping()
                stats = json_client.stats()
        protocols = sorted(c["protocol"] for c in stats["connections"])
        assert "binary" in protocols and "json" in protocols

    def test_binary_error_replies_are_framed_and_typed(self, tcp_server):
        host, port = tcp_server.address
        with ServingClient(host, port, wire="binary") as client:
            with pytest.raises(ServingError, match="no program registered"):
                client.submit("nope", {"x": [1.0]})
            # The connection survives the error reply.
            assert client.ping()

    def test_encrypted_session_and_submit_over_binary(self, tcp_server):
        host, port = tcp_server.address
        program = make_poly_program()
        kit = ClientKit(
            CompiledProgram.compile(program.graph),
            backend=MockBackend(error_model="none"),
            client_id="alice",
        )
        with ServingClient(host, port, wire="binary") as client:
            session = client.create_session("poly", kit)
            assert session["client_id"] == "alice"
            outputs = client.submit_encrypted(
                "poly", kit, {"x": [1.0, 2.0]}, client_id="alice"
            )
        np.testing.assert_allclose(outputs["y"][:2], [3.0, 7.0], atol=1e-6)

    def test_chunked_upload_streams_large_sessions(self, monkeypatch):
        # Real CKKS keys (N=4096) carry blobs past a lowered threshold, so the
        # session goes as CHUNK frames and the final request references the
        # upload.  (The mock backend's keys have no blob that large.)
        from repro.serving import netserver

        monkeypatch.setattr(netserver, "STREAM_THRESHOLD_BYTES", 64)
        sent = record_sends(monkeypatch)
        backend = CkksBackend(seed=7)
        options = CompilerOptions(max_rescale_bits=25)
        program = make_poly_program()
        kit = ClientKit(
            CompiledProgram.compile(program.graph, options=options),
            backend=backend,
            client_id="bob",
        )
        server = EvaServer(backend=backend, workers=1)
        server.register("poly", program, options=options)
        tcp = EvaTcpServer(server, port=0)
        tcp.start_background()
        try:
            with ServingClient(*tcp.address, wire="binary") as client:
                session = client.create_session("poly", kit)
                session_frames = [frame_type for _mode, _framing, frame_type in sent[client]]
                assert session["client_id"] == "bob"
                outputs = client.submit_encrypted("poly", kit, {"x": [0.5]}, client_id="bob")
        finally:
            tcp.shutdown()
            server.close()
        np.testing.assert_allclose(outputs["y"][:1], [1.75], atol=0.05)
        # No hello: the session's first chunk opened the connection, its
        # request followed its chunks, and every message was a frame.
        assert len(session_frames) > 1
        assert session_frames == [wire.FRAME_CHUNK] * (len(session_frames) - 1) + [wire.FRAME_REQUEST]
        assert {framing for _mode, framing, _type in sent[client]} == {"binary"}

    def test_upload_violations_surface_as_error_replies(self, tcp_server):
        host, port = tcp_server.address
        with ServingClient(host, port, wire="binary") as client:
            # Reference an upload that was never streamed.
            envelope, _blobs = wire.split_message(
                messages.build_request("session", program="poly",
                                       evaluation_keys={"k": 1})
            )
            envelope[wire.UPLOAD_KEY] = "never-streamed"
            payload = client.roundtrip(wire.BINARY, [wire.encode_envelope(envelope)])
            reply, _ = wire.decode_message(payload)
            assert reply["ok"] is False
            assert reply["kind"] == "SerializationError"
            # The connection is still usable.
            assert client.ping()


class TestMixedProtocolCluster:
    def test_json_and_binary_clients_share_one_router(self, tmp_path):
        cluster = EvaCluster(
            shards=2,
            backend=BackendSpec(name="mock-exact"),
            session_dir=str(tmp_path / "sessions"),
            workers=1,
            batch_window=0.0,
        )
        cluster.register("poly", make_poly_program())
        cluster.start()
        router = ClusterTcpServer(cluster, port=0)
        router.start_background()
        try:
            host, port = router.address
            x = [float(i) for i in range(8)]
            results = {}
            errors = []

            def run(mode, client_id):
                try:
                    with ServingClient(host, port, wire=mode) as client:
                        assert client.protocol == (
                            "binary" if mode == "binary" else "json"
                        )
                        out = []
                        for _ in range(5):
                            out.append(
                                client.submit("poly", {"x": x}, client_id=client_id)
                            )
                        results[mode] = out
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append((mode, exc))

            threads = [
                threading.Thread(target=run, args=("binary", "alice")),
                threading.Thread(target=run, args=("json", "bob")),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors, errors
            for mode in ("binary", "json"):
                for out in results[mode]:
                    np.testing.assert_allclose(
                        out["y"], [v * v + v + 1.0 for v in x], atol=1e-6
                    )
            # The router saw both protocols on its listener.
            with ServingClient(host, port, wire="json") as admin:
                stats = admin.stats()
                protocols = {c["protocol"] for c in stats["connections"]}
                assert "json" in protocols
                metrics = admin.metrics()["metrics"]
            counters = {
                (c["name"], c["labels"].get("protocol"))
                for c in metrics["counters"]
            }
            assert ("net.bytes_received", "binary") in counters
            assert ("net.bytes_received", "json") in counters
        finally:
            router.shutdown()
            cluster.close()

    def test_binary_session_routes_through_router(self, tmp_path):
        cluster = EvaCluster(
            shards=2,
            backend=BackendSpec(name="mock-exact"),
            session_dir=str(tmp_path / "sessions"),
            workers=1,
            batch_window=0.0,
        )
        cluster.register("poly", make_poly_program())
        cluster.start()
        router = ClusterTcpServer(cluster, port=0)
        router.start_background()
        try:
            host, port = router.address
            program = make_poly_program()
            kit = ClientKit(
                CompiledProgram.compile(program.graph),
                backend=MockBackend(error_model="none"),
                client_id="carol",
            )
            with ServingClient(host, port, wire="binary") as client:
                session = client.create_session("poly", kit)
                assert session["client_id"] == "carol"
                outputs = client.submit_encrypted(
                    "poly", kit, {"x": [1.0, 3.0]}, client_id="carol"
                )
            np.testing.assert_allclose(outputs["y"][:2], [3.0, 13.0], atol=1e-6)
        finally:
            router.shutdown()
            cluster.close()

    def test_chunked_upload_streams_through_router(self, tmp_path, monkeypatch):
        from repro.serving import netserver

        monkeypatch.setattr(netserver, "STREAM_THRESHOLD_BYTES", 64)
        sent = record_sends(monkeypatch)
        cluster = EvaCluster(
            shards=2,
            backend=BackendSpec(name="mock-exact"),
            session_dir=str(tmp_path / "sessions"),
            workers=1,
            batch_window=0.0,
        )
        cluster.register("poly", make_poly_program())
        cluster.start()
        router = ClusterTcpServer(cluster, port=0)
        router.start_background()
        try:
            host, port = router.address
            program = make_poly_program()
            kit = ClientKit(
                CompiledProgram.compile(program.graph),
                backend=MockBackend(error_model="none"),
                client_id="dave",
            )
            with ServingClient(host, port, wire="binary") as client:
                session = client.create_session("poly", kit)
                assert session["client_id"] == "dave"
                outputs = client.submit_encrypted(
                    "poly", kit, {"x": [2.0, 4.0]}, client_id="dave"
                )
            np.testing.assert_allclose(outputs["y"][:2], [7.0, 21.0], atol=1e-6)
        finally:
            router.shutdown()
            cluster.close()
        # The client and the cluster's upstream connections (every binary
        # ServingClient here; the health probes speak JSON lines) wrote no
        # hello, and frames only.
        upstreams = [other for other in sent if other is not client and other.protocol == "binary"]
        assert upstreams
        for connection in [client, *upstreams]:
            assert sent[connection][0] == ("binary", "binary", wire.FRAME_REQUEST)
            assert {framing for _mode, framing, _type in sent[connection]} == {"binary"}


    def test_shard_killed_mid_upload_is_a_typed_error_and_a_clean_retry(self, tmp_path, monkeypatch):
        """A client's home shard is SIGKILLed half way through its chunked key
        upload.  The request that references the upload gets a typed error
        (never a hang, never a session built from half the keys), no upload
        bookkeeping outlives it on the router or on the surviving shard, and the
        same client's retry lands on its new home shard and is served."""
        from repro.serving import netserver

        monkeypatch.setattr(netserver, "STREAM_THRESHOLD_BYTES", 64)
        cluster = EvaCluster(
            shards=2,
            backend=BackendSpec(name="ckks", seed=3),  # real keys: 240 kB in four blobs
            session_dir=str(tmp_path / "sessions"),
            workers=1,
            batch_window=0.0,
            health_interval=None,  # the router finds out from the transport
            request_timeout=20.0,
        )
        options = CompilerOptions(max_rescale_bits=25)  # the real backend's primes stop at 30 bits
        cluster.register("poly", make_poly_program(), options=options)
        cluster.start()
        router = ClusterTcpServer(cluster, port=0)
        router.start_background()
        try:
            host, port = router.address
            kit = ClientKit(
                CompiledProgram.compile(make_poly_program().graph, options=options),
                backend=CkksBackend(seed=3),
                client_id="dave",
            )
            victim = cluster.describe_route("dave")["shard"]
            with ServingClient(host, port, wire="binary", timeout=30.0) as client:
                with wire.BINARY.blob_context():
                    request = messages.build_request(
                        "session", program="poly", client_id="dave",
                        evaluation_keys=kit.export_evaluation_keys(),
                    )
                envelope, blobs = wire.BINARY.split(request)
                assert blobs, "the key set travels as blobs"
                chunks = []
                for index, blob in enumerate(blobs):
                    half = len(blob) // 2
                    for position, view in enumerate((memoryview(blob)[:half], memoryview(blob)[half:])):
                        chunk = {"upload": "up-9", "blob": index, "eof": position == 1, "client_id": "dave"}
                        chunks.append(wire.BINARY.join(chunk, [view]))
                (conn,) = router._connections.values()

                client.send(wire.BINARY, wire.FRAME_CHUNK, chunks[0])
                assert client.ping()  # answered after the chunk before it was relayed
                assert len(conn._open_uploads) == 1
                cluster._handles[victim].process.kill()
                cluster._handles[victim].process.join(timeout=10)
                for chunk in chunks[1:]:
                    client.send(wire.BINARY, wire.FRAME_CHUNK, chunk)
                envelope[wire.UPLOAD_KEY] = "up-9"
                raw = client.roundtrip(wire.BINARY, wire.BINARY.join(envelope, ()))
                reply = wire.BINARY.decode(raw, wire.BINARY.peek(raw))
                assert reply["ok"] is False, "half an upload must never become a session"
                assert reply["kind"] in ("SerializationError", "TransportError"), reply

                # Nothing outlives the failed request: the router connection
                # forgot the upload, the surviving shard holds no buffers.
                assert conn._open_uploads == {}
                survivor = 1 - victim
                stats = client.stats()
                assert stats["live"] == [survivor] and stats["dead"] == [victim]
                connections = stats["per_shard"][str(survivor)]["connections"]
                assert connections and all(info["open_uploads"] == 0 for info in connections)

                # The same client, same connection, retries: new home, served.
                session = client.create_session("poly", kit)
                assert session["client_id"] == "dave"
                assert cluster.describe_route("dave")["shard"] == survivor
                outputs = client.submit_encrypted("poly", kit, {"x": [0.5, 1.0]})
                np.testing.assert_allclose(outputs["y"][:2], [1.75, 3.0], atol=5e-2)
                assert conn._open_uploads == {}
        finally:
            router.shutdown()
            cluster.close()


class TestRouterUploadIsolation:
    """Chunked uploads of different clients share a router->shard connection
    (one per dispatch worker and shard) but must never share upload state."""

    @pytest.fixture
    def routed(self, monkeypatch):
        """A router with ONE dispatch worker in front of one shard, so every
        client connection relays over the same upstream socket."""
        from repro.serving import aionet, netserver

        monkeypatch.setattr(netserver, "STREAM_THRESHOLD_BYTES", 64)
        monkeypatch.setattr(aionet, "DISPATCH_WORKERS", 1)
        cluster = EvaCluster(shards=1, backend=BackendSpec(name="mock-exact"), workers=1)
        cluster.register("poly", make_poly_program())
        cluster.start()
        router = ClusterTcpServer(cluster, port=0)
        router.start_background()
        try:
            yield router, cluster
        finally:
            router.shutdown()
            cluster.close()

    @staticmethod
    def wait_for(condition, what):
        for _ in range(200):
            if condition():
                return
            threading.Event().wait(0.025)
        raise AssertionError(f"timed out waiting for {what}")

    @staticmethod
    def shard_open_uploads(cluster):
        """Open uploads over every connection the shard process holds."""
        connections = cluster.stats()["per_shard"]["0"]["connections"]
        return sum(info["open_uploads"] for info in connections)

    def abandon_upload(self, router, upload_id, client_id="ghost"):
        """A client that streams one non-final chunk, then disconnects."""
        import socket

        host, port = router.address
        before = {info["peer"] for info in router.connection_infos()}
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                wire.encode_frame(
                    wire.FRAME_CHUNK,
                    wire.encode_envelope(
                        {"upload": upload_id, "blob": 0, "eof": False, "client_id": client_id}
                    ),
                    *wire.encode_blob_record(b"\x01" * 13),
                )
                # Answered only after the chunk before it has been relayed.
                + b'{"op":"ping"}\n'
            )
            assert b"pong" in sock.makefile("rb").readline()
            peer = "%s:%d" % sock.getsockname()[:2]
        # The router has noticed the disconnect (and queued its clean-up).
        self.wait_for(
            lambda: peer not in {i["peer"] for i in router.connection_infos()} - before,
            "the router to drop the ghost's connection",
        )

    def chunked_session_and_request(self, router, client_id):
        host, port = router.address
        kit = ClientKit(
            CompiledProgram.compile(make_poly_program().graph),
            backend=MockBackend(error_model="none"),
            client_id=client_id,
        )
        with ServingClient(host, port, wire="binary") as client:
            session = client.create_session("poly", kit)
            assert session["client_id"] == client_id
            outputs = client.submit_encrypted("poly", kit, {"x": [2.0, 4.0]})
            assert client._upload_seq == 1  # the bundle really went as upload "up-1"
        np.testing.assert_allclose(outputs["y"][:2], [7.0, 21.0], atol=1e-6)

    def test_abandoned_upload_does_not_corrupt_the_next_clients(self, routed):
        router, _cluster = routed
        # Same upload id the victim's ServingClient will mint for its bundle.
        self.abandon_upload(router, "up-1")
        self.chunked_session_and_request(router, "victim")

    def test_abandoned_uploads_cannot_wedge_a_dispatch_slot(self, routed):
        router, _cluster = routed
        for index in range(5):  # one more than MAX_OPEN_UPLOADS
            self.abandon_upload(router, f"ghost-{index}", client_id=f"ghost-{index}")
        self.chunked_session_and_request(router, "fresh")

    def test_shard_side_open_uploads_return_to_zero(self, routed):
        router, cluster = routed
        self.abandon_upload(router, "up-1")
        self.abandon_upload(router, "up-2")
        self.wait_for(
            lambda: self.shard_open_uploads(cluster) == 0, "the shard to discard the uploads"
        )
        self.chunked_session_and_request(router, "after")
        assert self.shard_open_uploads(cluster) == 0
