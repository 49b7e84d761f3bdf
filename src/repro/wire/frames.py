"""Frame layer of the binary wire protocol.

Every binary message on a serving connection is one *frame*::

    +--------+--------+================+==============================+
    |  0xEB  |  type  | varint length  | payload (``length`` bytes)   |
    +--------+--------+================+==============================+

The magic byte ``0xEB`` can never begin a JSON-lines message (those start
with ``{`` or whitespace), so the first byte of a message says which
protocol it speaks — the sniffing that lets legacy JSON clients and binary
clients share a listener.

The framing rules are written once, in :class:`FrameDecoder`: a pure
(socket-free) parser that is fed whatever bytes arrived and hands back
complete messages.  The asyncio listener pumps it from its stream reader,
the blocking :class:`~repro.serving.ServingClient` pumps it from ``recv``
(:func:`read_message`), and the fuzz tests pump it from byte strings.

Payload *content* is the codec layer's business (:mod:`.codec`); this module
only moves length-checked byte strings.  Every failure mode a hostile or
broken peer can produce — an over-long varint, a declared length past
:data:`MAX_FRAME_BYTES`, an unknown frame type, a JSON line that never ends
— raises :class:`~repro.errors.TransportError` from the header alone,
*before* unbounded buffering or allocation, so a bad frame can neither hang
a reader nor balloon its memory.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

from ..core.serialization.wire import decode_varint, encode_varint
from ..errors import TransportError

#: First byte of every binary frame.  JSON-lines messages begin with ``{``
#: (0x7B) or whitespace, so one-byte sniffing is unambiguous.
MAGIC = 0xEB

#: Frame types.  Responses mirror requests; CHUNK frames carry one slice of
#: a streaming blob upload and are never answered individually.
FRAME_REQUEST = 0x01
FRAME_RESPONSE = 0x02
FRAME_CHUNK = 0x03

_KNOWN_TYPES = (FRAME_REQUEST, FRAME_RESPONSE, FRAME_CHUNK)

#: Hard ceiling on one frame's payload (and on one JSON line).  Chunked
#: uploads exist precisely so nothing legitimate ever approaches this;
#: anything larger is a corrupt or malicious length and is rejected before
#: allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: A varint longer than this many bytes cannot encode a sane length.
_MAX_VARINT_BYTES = 10

#: How much a pump (the listener's loop, :func:`read_message`) asks its
#: source for at a time.
READ_BYTES = 256 * 1024

#: ``("json", line)`` or ``("frame", frame_type, payload, wire_bytes)``.
Message = Union[Tuple[str, bytes], Tuple[str, int, bytes, int]]


def frame_header(frame_type: int, length: int) -> bytes:
    """The magic, type and varint length that precede a frame's payload."""
    if frame_type not in _KNOWN_TYPES:
        raise TransportError(f"unknown frame type {frame_type:#x}")
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame payload of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return bytes((MAGIC, frame_type)) + encode_varint(length)


def encode_frame(frame_type: int, *parts) -> bytes:
    """One complete frame as bytes; the payload is the concatenation of ``parts``.

    ``parts`` may be ``bytes``, ``bytearray``, or ``memoryview`` — each is
    copied exactly once, into the returned frame, so the result stays valid
    after the buffers behind the views are released.
    """
    header = frame_header(frame_type, sum(len(part) for part in parts))
    return b"".join((header, *parts))


class FrameDecoder:
    """Sans-IO parser of one connection's inbound byte stream.

    :meth:`feed` it whatever arrived; :meth:`next_message` returns the next
    complete message — ``("json", line)`` with the raw newline-terminated
    line, or ``("frame", frame_type, payload, wire_bytes)`` where
    ``wire_bytes`` is the frame's full on-wire size for byte accounting —
    or ``None`` when more bytes are needed.  A framing violation raises
    :class:`~repro.errors.TransportError`; the stream cannot resynchronize
    after one, so the owner drops the connection.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: Bytes of an unfinished JSON line already searched for a newline.
        self._scanned = 0

    def feed(self, data) -> None:
        """Append received bytes."""
        self._buffer += data

    @property
    def pending(self) -> int:
        """Bytes buffered that do not yet form a complete message."""
        return len(self._buffer)

    def next_message(self) -> Optional[Message]:
        """The next complete message, or ``None`` until more bytes arrive."""
        buffer = self._buffer
        if not buffer:
            return None
        if buffer[0] != MAGIC:
            end = buffer.find(b"\n", self._scanned)
            if end < 0:
                if len(buffer) > MAX_FRAME_BYTES:
                    raise TransportError(
                        f"JSON line exceeds the {MAX_FRAME_BYTES}-byte limit "
                        "(corrupt or hostile peer)"
                    )
                self._scanned = len(buffer)
                return None
            self._scanned = 0
            return "json", self._take(0, end + 1)
        if len(buffer) < 2:
            return None
        frame_type = buffer[1]
        if frame_type not in _KNOWN_TYPES:
            raise TransportError(f"unknown frame type {frame_type:#x}")
        varint = buffer[2 : 2 + _MAX_VARINT_BYTES]
        if all(byte & 0x80 for byte in varint):
            if len(varint) == _MAX_VARINT_BYTES:
                raise TransportError("frame varint is too long (corrupt frame header)")
            return None
        length, varint_bytes = decode_varint(varint, 0)
        if length > MAX_FRAME_BYTES:
            raise TransportError(
                f"frame declares a {length}-byte payload, above the "
                f"{MAX_FRAME_BYTES}-byte limit (corrupt or hostile header)"
            )
        start = 2 + varint_bytes
        if len(buffer) < start + length:
            return None
        return "frame", frame_type, self._take(start, start + length), start + length

    def _take(self, start: int, end: int) -> bytes:
        """Copy ``buffer[start:end]`` out (once) and consume through ``end``."""
        with memoryview(self._buffer) as view:
            data = view[start:end].tobytes()
        del self._buffer[:end]
        return data


def read_message(decoder: FrameDecoder, recv: Callable[[int], bytes]) -> Message:
    """Blocking pump: feed ``decoder`` from ``recv`` until one message is complete.

    ``recv`` is ``socket.recv`` (or anything returning *up to* the requested
    byte count and ``b""`` at end of stream).  Bytes past the returned
    message stay in ``decoder`` for the next call.
    """
    while True:
        message = decoder.next_message()
        if message is not None:
            return message
        data = recv(READ_BYTES)
        if not data:
            if decoder.pending:
                raise TransportError(
                    f"connection closed mid-message ({decoder.pending} bytes "
                    "of an unfinished message received)"
                )
            raise TransportError("connection closed by server")
        decoder.feed(data)
