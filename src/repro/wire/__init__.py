"""Binary wire protocol for the serving transport (``repro.wire``).

The serving stack's original transport is newline-delimited JSON: readable,
debuggable, and ~33% larger than it needs to be the moment ciphertext and
evaluation-key blobs ride along base64-inflated.  This package is the binary
alternative that shares every listener with the JSON protocol:

* :mod:`.frames` — the frame layer: one magic byte (so a server can sniff
  binary frames apart from JSON lines on the same socket), a frame type, a
  varint length, and the payload.  One socket-free
  :class:`~.frames.FrameDecoder` holds every framing rule; oversized or
  garbage input raises :class:`~repro.errors.TransportError` from the header
  alone, before anything is buffered or allocated for it.
* :mod:`.codec` — the message layer: a request/response dict is split into a
  small JSON *envelope* plus length-delimited binary *blob* records (protobuf
  style).  Varints and tagged fields, here and in the frame header, are the
  one implementation in :mod:`repro.core.serialization.wire`.  Cipher and key
  blobs travel as raw little-endian bytes — no base64 — and decode into
  zero-copy :class:`memoryview` slices of the received frame.
* :mod:`.protocol` — connection-level concerns: the ``hello`` negotiation
  (a JSON line, so legacy servers answer it with an ordinary error and the
  client falls back to JSON) of the framing and of optional record shapes
  (``features``), and chunked streaming uploads so a multi-MB
  evaluation-key set is carried as a sequence of bounded frames instead of
  one monolithic message.

* :mod:`.framing` — the codec pair: ``JSON`` and ``BINARY``, two instances of
  one interface (peek an envelope, decode, rewrite an envelope field without
  touching blob bytes, encode), picked per message by what the frame decoder
  sniffed.  Servers, the router's passthrough and the client reach a message
  only through it, so nothing downstream is written once per framing.

Compatibility promise: a listener that speaks this protocol still serves
plain JSON-lines clients unchanged — framing is sniffed per message from the
first byte, and replies always use the framing of the request they answer.
"""

from .codec import (
    BLOB_KEY,
    UPLOAD_KEY,
    decode_message,
    encode_blob_record,
    encode_envelope,
    encode_message,
    join_message,
    peek_envelope,
    rehydrate,
    replace_envelope,
    split_message,
)
from .frames import (
    FRAME_CHUNK,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    MAGIC,
    MAX_FRAME_BYTES,
    FrameDecoder,
    encode_frame,
    read_message,
)
from .framing import BINARY, FRAMINGS, JSON, Framing, Parts, open_message
from .protocol import (
    BITPACKED,
    CHUNK_BYTES,
    FEATURES,
    MAX_TRACKED_UPLOADS,
    PROTOCOL_VERSION,
    SEEDED,
    STREAM_THRESHOLD_BYTES,
    UploadState,
    WIRE_MODES,
    build_hello,
    granted_features,
    hello_ack,
    iter_chunks,
    parse_hello_reply,
)

__all__ = [
    "BINARY",
    "BITPACKED",
    "BLOB_KEY",
    "CHUNK_BYTES",
    "FEATURES",
    "FRAME_CHUNK",
    "FRAME_REQUEST",
    "FRAME_RESPONSE",
    "FRAMINGS",
    "FrameDecoder",
    "Framing",
    "JSON",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "MAX_TRACKED_UPLOADS",
    "PROTOCOL_VERSION",
    "Parts",
    "SEEDED",
    "STREAM_THRESHOLD_BYTES",
    "UPLOAD_KEY",
    "UploadState",
    "WIRE_MODES",
    "build_hello",
    "decode_message",
    "encode_blob_record",
    "encode_envelope",
    "encode_frame",
    "encode_message",
    "granted_features",
    "hello_ack",
    "iter_chunks",
    "join_message",
    "open_message",
    "parse_hello_reply",
    "peek_envelope",
    "read_message",
    "rehydrate",
    "replace_envelope",
    "split_message",
]
