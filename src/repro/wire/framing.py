"""The two framings of a serving connection, behind one codec.

A message crosses a connection either as a JSON line or as a binary frame,
and everything that touches it — the sans-IO connection objects, the
router's passthrough, the blocking client — needs the same few operations
whichever it is.  A :class:`Framing` has them:

``peek(raw)``
    the message's envelope — its top-level fields — with the blobs untouched;
``decode(raw, envelope, uploads=None)``
    the whole message behind a peeked envelope; a request that references a
    chunked upload claims its blobs from ``uploads`` (the connection's
    :class:`~.protocol.UploadState`, so only requests can);
``rewrite(raw, envelope, fields)``
    parts of the message with envelope ``fields`` set, blobs by reference;
``split(message)`` and ``join(envelope, blobs)``
    an outgoing message as (envelope, blobs), and its parts from those — a
    sender may stream the blobs separately in between;
``encode(frame_type, parts)``
    one message as owned wire bytes, valid after the parts' buffers are gone;
``blob_context()``
    the packing context its messages are built *and encoded* in (blob views
    die with it).

:data:`JSON` and :data:`BINARY` are the only two instances, and
:func:`open_message` picks one from what :class:`~.frames.FrameDecoder`
already sniffed — no flag and no option anywhere selects a framing.

Each framing has its own unit of *raw* message — the stripped text of a JSON
line, or a frame's payload bytes — and of *parts*, the pieces a message is
written from (text fragments, or byte-likes whose blob slices are passed by
reference so a relay never copies megabytes of ciphertext).  Callers treat
both as opaque and hand them back to the framing they came from.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from typing import Any, BinaryIO, Dict, Optional, Sequence, Tuple

from ..core.serialization import messages
from ..core.serialization.packing import raw_blobs
from ..errors import SerializationError
from .codec import (
    UPLOAD_KEY,
    decode_message,
    join_message,
    peek_envelope,
    rehydrate,
    replace_envelope,
    split_message,
)
from .frames import Message, encode_frame, frame_header

#: The pieces one message is written from; opaque outside its framing.
Parts = Sequence[Any]


class Framing:
    """One of a connection's two framings (operations: see the module docstring)."""

    #: The protocol label in hello replies, ``stats`` and telemetry.
    name: str
    #: Whether value vectors travel as packed arrays rather than float lists.
    packed: bool

    def parts(self, message: Dict[str, Any]) -> Parts:
        """Parts of one outgoing message dict."""
        return self.join(*self.split(message))

    def write(self, stream: BinaryIO, frame_type: int, parts: Parts) -> int:
        """Write one message to a buffered stream; returns the bytes written."""
        data = self.encode(frame_type, parts)
        stream.write(data)
        return len(data)


class _JsonLines(Framing):
    """Newline-delimited JSON: the line *is* the message, blobs are base64."""

    name = "json"
    packed = False
    blob_context = staticmethod(nullcontext)

    def peek(self, raw: str) -> Dict[str, Any]:
        try:
            message = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"malformed JSON message: {exc}") from exc
        if not isinstance(message, dict):
            raise SerializationError("message must be a JSON object")
        return message

    def decode(self, raw, envelope, uploads=None):
        return envelope

    def rewrite(self, raw: str, envelope, fields) -> Parts:
        # A new field is a string splice at the closing brace — the line may
        # be megabytes of base64 — and only replacing one pays a re-encode.
        if any(key in envelope for key in fields):
            return self.join({**envelope, **fields}, ())
        for key, value in fields.items():
            raw = messages.splice_field(raw, key, value)
        return (raw,)

    def split(self, message):
        return message, ()

    def join(self, envelope, blobs) -> Parts:
        return (json.dumps(envelope, separators=(",", ":")),)

    def encode(self, frame_type: int, parts: Parts) -> bytes:
        text = "".join(parts)
        return (text if text.endswith("\n") else text + "\n").encode("utf-8")


class _BinaryFrames(Framing):
    """Binary frames: a small JSON envelope plus raw blob records."""

    name = "binary"
    packed = True
    blob_context = staticmethod(raw_blobs)

    def peek(self, raw) -> Dict[str, Any]:
        return peek_envelope(raw)[0]

    def decode(self, raw, envelope, uploads=None):
        if uploads is not None and UPLOAD_KEY in envelope:
            blobs = uploads.finish(envelope.pop(UPLOAD_KEY))
        else:
            blobs = decode_message(raw)[1]
        return rehydrate(envelope, blobs)

    def rewrite(self, raw, envelope, fields) -> Parts:
        return replace_envelope(raw, {**envelope, **fields})

    split = staticmethod(split_message)
    join = staticmethod(join_message)

    def encode(self, frame_type: int, parts: Parts) -> bytes:
        return encode_frame(frame_type, *parts)

    def write(self, stream: BinaryIO, frame_type: int, parts: Parts) -> int:
        # Piecewise, unlike encode: a sender relaying a multi-megabyte blob
        # slice never builds a second copy of it on its way to the socket.
        length = sum(len(part) for part in parts)
        header = frame_header(frame_type, length)
        stream.write(header)
        for part in parts:
            stream.write(part)
        return len(header) + length


JSON = _JsonLines()
BINARY = _BinaryFrames()

#: The two framings by protocol label (what a hello negotiates).
FRAMINGS = {JSON.name: JSON, BINARY.name: BINARY}


def open_message(message: Message) -> Tuple[Framing, Optional[int], Any, int]:
    """``(framing, frame_type, raw, wire_bytes)`` of one decoded message.

    A JSON line has no frame type (``None``) and its raw form is the stripped
    text.  A line that is not UTF-8 raises :class:`UnicodeDecodeError`:
    neither framing can answer it, so owners drop the connection.
    """
    if message[0] == "frame":
        _kind, frame_type, payload, wire_bytes = message
        return BINARY, frame_type, payload, wire_bytes
    line = message[1]
    return JSON, None, line.decode("utf-8").strip(), len(line)
