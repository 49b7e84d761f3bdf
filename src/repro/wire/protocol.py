"""Connection-level pieces of the binary wire protocol.

Two concerns live here, shared by client and server:

**Negotiation.**  A client that wants binary framing opens the conversation
with a plain JSON line — ``{"op": "hello", "wire": "binary", "versions":
[1]}`` — because every server ever shipped can at least parse that.  A
binary-capable server answers ``{"ok": true, "wire": "binary", "version":
1}`` and both sides switch to frames; a server pinned to JSON answers
``{"ok": true, "wire": "json"}``; a *legacy* server answers its ordinary
"unknown op" error, which an ``auto`` client treats as "speak JSON" — so new
clients work against old servers and old clients never see a byte of binary.

**Features.**  The same exchange carries what is new *inside* messages without
a new format or version: the hello lists the optional record shapes the client
can write (``"features": ["seeded"]``), the ack repeats the ones this build
reads, and a client writes a shape only after seeing it granted.  A peer that
knows nothing of features ignores the field, grants nothing, and is sent the
records every build understands — SNIPPETS.md §3's rule that old readers skip
what they do not know.  Decoders accept every shape regardless: negotiation
only restrains writers.  :data:`FEATURES` is the whole list
(``docs/wire-protocol.md`` describes each; ``tools/check_docs.py`` holds the
two together).

**Chunked uploads.**  A multi-megabyte evaluation-key set is not sent as one
monolithic frame: the client streams it as bounded CHUNK frames (one blob
slice each) and finishes with a request frame referencing the upload.  The
server assembles chunks between serving other traffic on the connection, so
a large ``create_session`` no longer head-of-line-blocks every pipelined
request behind one giant read, and per-connection caps bound the memory any
peer can pin.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple, Union

from ..errors import SerializationError, ServingError, TransportError
from .frames import MAX_FRAME_BYTES

#: Highest binary protocol version this build speaks.
PROTOCOL_VERSION = 1

#: ``seeded``: a uniformly random polynomial (a fresh ciphertext's ``c1``, the
#: ``a`` half of a public or switching key) may travel as ``{"seed": <hex>}``.
SEEDED = "seeded"

#: ``bitpacked``: an RNS residue matrix may travel at its primes' bit widths,
#: ``{"dtype": "bits", "bits": [...], ...}``, instead of as ``u4`` words.
BITPACKED = "bitpacked"

#: Every optional record shape this build reads, and offers to write.
FEATURES = (SEEDED, BITPACKED)

#: Client/server wire modes (CLI ``--wire``): ``auto`` negotiates binary and
#: falls back to JSON, the other two force one protocol.
WIRE_MODES = ("auto", "binary", "json")

#: One streamed chunk's blob slice (frame payload stays comfortably small).
CHUNK_BYTES = 256 * 1024

#: Requests whose blobs total more than this are streamed as chunks.
STREAM_THRESHOLD_BYTES = 1024 * 1024

#: Ceiling on one upload's buffered bytes, and on concurrent assembling
#: uploads per upload namespace (see :class:`UploadState`: a direct client's
#: namespace is its connection) — a misbehaving peer cannot pin unbounded memory.
MAX_UPLOAD_BYTES = MAX_FRAME_BYTES
MAX_OPEN_UPLOADS = 4

#: Upload ids one namespace may have outstanding in any state — assembling,
#: poisoned and waiting to be reported, or (at a relay) not yet claimed.  The
#: first ids past :data:`MAX_OPEN_UPLOADS` are still answered on the request
#: that references them; a peer that keeps minting ids past this is dropped.
MAX_TRACKED_UPLOADS = 64

#: Connection-wide ceilings beside the per-namespace ones, because the peer
#: chooses its ids and so its namespaces: upload ids outstanding in any state
#: across all namespaces (a new id past this drops the peer), and bytes
#: buffered across all uploads (the upload that would pass it is poisoned) —
#: what :data:`MAX_OPEN_UPLOADS` full uploads come to, the most one connection
#: could ever pin, so a single namespace on its own never reaches it.
MAX_CONNECTION_UPLOADS = 16 * MAX_TRACKED_UPLOADS
MAX_CONNECTION_UPLOAD_BYTES = MAX_OPEN_UPLOADS * MAX_UPLOAD_BYTES

_Bytes = Union[bytes, bytearray, memoryview]


def build_hello(mode: str) -> Dict[str, Any]:
    """The hello request an ``auto`` or ``binary`` client opens with."""
    return {
        "op": "hello",
        "wire": str(mode),
        "versions": [PROTOCOL_VERSION],
        "features": list(FEATURES),
    }


def hello_ack(request: Dict[str, Any]) -> Tuple[Dict[str, Any], str]:
    """Answer a hello.

    Returns ``(reply, negotiated_protocol)``.  Binary is granted when the
    client asks for it (``auto`` or ``binary``) and offers a version this
    build speaks; everything else negotiates down to JSON.
    Whichever framing results, the reply grants the offered features this
    build reads (and has no such field for a client that offered none).
    """
    versions = request.get("versions")
    offered = (
        [v for v in versions if isinstance(v, int)]
        if isinstance(versions, list)
        else []
    )
    wants_binary = request.get("wire") in ("binary", "auto")
    if wants_binary and PROTOCOL_VERSION in offered:
        reply = {"ok": True, "wire": "binary", "version": PROTOCOL_VERSION}
    else:
        reply = {"ok": True, "wire": "json"}
    granted = _known_features(request)
    if granted:
        reply["features"] = granted
    return reply, reply["wire"]


def _known_features(message: Dict[str, Any]) -> List[str]:
    """The entries of a hello's or an ack's ``features`` that this build knows."""
    features = message.get("features")
    return [f for f in features if f in FEATURES] if isinstance(features, list) else []


def granted_features(reply: Dict[str, Any]) -> FrozenSet[str]:
    """The features a hello reply grants: none from a refusal or an older server."""
    return frozenset(_known_features(reply)) if reply.get("ok") else frozenset()


def parse_hello_reply(reply: Dict[str, Any], mode: str) -> Tuple[str, Optional[int]]:
    """Interpret the server's hello reply; returns (protocol, version).

    In ``auto`` mode any refusal — a server that answers JSON, or a legacy
    server answering "unknown op" — falls back to JSON.  In forced ``binary`` mode a
    refusal is an error, because the caller asked for a guarantee the server
    cannot give.
    """
    if reply.get("ok") and reply.get("wire") == "binary":
        version = reply.get("version")
        if version != PROTOCOL_VERSION:
            raise ServingError(
                f"server negotiated unsupported wire protocol version {version!r}"
            )
        return "binary", PROTOCOL_VERSION
    if mode == "binary":
        detail = reply.get("error") or reply.get("wire") or "refused"
        raise ServingError(
            f"server does not speak the binary wire protocol ({detail}); "
            "use --wire auto or json against it"
        )
    return "json", None


def iter_chunks(blob: _Bytes, size: int = CHUNK_BYTES) -> Iterator[memoryview]:
    """Slice one blob into bounded memoryview chunks (zero-copy)."""
    view = memoryview(blob)
    if not len(view):
        yield view
        return
    for start in range(0, len(view), size):
        yield view[start : start + size]


class _Upload:
    __slots__ = ("blobs", "complete", "error", "total")

    def __init__(self) -> None:
        self.blobs: List[bytearray] = []
        self.complete: List[bool] = []
        self.error: Optional[str] = None
        self.total = 0


def _namespace(upload_id: str) -> str:
    """What a relay prefixed an upload id with ("" for a direct client's id)."""
    prefix, slash, _rest = upload_id.partition("/")
    return prefix if slash else ""


class UploadState:
    """Per-connection assembly of chunked blob uploads.

    Chunk envelopes carry ``{"upload": id, "blob": index, "eof": bool}``;
    chunks of one blob arrive in order (TCP per-connection ordering), blobs
    may interleave.  Violations — byte caps, too many concurrent uploads,
    malformed indices — *poison* the upload rather than raising: CHUNK
    frames are never answered individually, so the error is reported exactly
    once, on the final request that references the upload.  Poisoned records
    are bookkeeping a peer could grow without limit, so a new id past
    :data:`MAX_TRACKED_UPLOADS` raises :class:`~repro.errors.TransportError`
    and the owner drops the connection, as for a malformed chunk.

    A relay that multiplexes several clients onto this connection (the
    cluster router) prefixes each client's ids with ``<its connection key>/``,
    and the two caps are charged per such *namespace* (a direct client's ids
    have none: the empty namespace, the whole connection) — otherwise one
    client behind the relay could exhaust the caps of every neighbour sharing
    the upstream connection.  A namespace is whatever the peer wrote, so
    beside them the connection as a whole stays under
    :data:`MAX_CONNECTION_UPLOADS` ids and
    :data:`MAX_CONNECTION_UPLOAD_BYTES` buffered bytes.  The relay sends
    ``{"upload": id, "discard": true}`` for an upload whose client went away,
    so abandoned buffers do not count against the caps forever.
    """

    def __init__(self) -> None:
        self._uploads: Dict[str, _Upload] = {}
        #: Bytes held in ``blobs`` across every upload of this connection.
        self._buffered = 0

    def __len__(self) -> int:
        return len(self._uploads)

    def _release(self, upload: _Upload, error: Optional[str] = None) -> None:
        """Stop counting an upload's buffers: it was claimed or discarded, or
        (with ``error``) it is poisoned and keeps only the message."""
        self._buffered -= sum(len(blob) for blob in upload.blobs)
        if error is not None:
            upload.error = error
            upload.blobs = []

    def add_chunk(self, envelope: Dict[str, Any], data: _Bytes) -> None:
        """Buffer one chunk frame's blob slice (copies it — the frame buffer
        is released when the handler moves to the next message)."""
        upload_id = str(envelope.get("upload"))
        if envelope.get("discard"):
            if upload_id in self._uploads:
                self._release(self._uploads.pop(upload_id))
            return
        upload = self._uploads.get(upload_id)
        if upload is None:
            namespace = _namespace(upload_id)
            tracked = sum(_namespace(known) == namespace for known in self._uploads)
            if tracked >= MAX_TRACKED_UPLOADS or len(self) >= MAX_CONNECTION_UPLOADS:
                raise TransportError(f"connection has {len(self)} unclaimed uploads")
            if tracked >= MAX_OPEN_UPLOADS:
                upload = _Upload()
                upload.error = (
                    f"connection exceeds {MAX_OPEN_UPLOADS} concurrent uploads"
                )
                self._uploads[upload_id] = upload
                return
            upload = self._uploads[upload_id] = _Upload()
        if upload.error is not None:
            return
        index = envelope.get("blob")
        if not isinstance(index, int) or index < 0 or index > len(upload.blobs):
            self._release(upload, f"chunk references blob {index!r} out of order")
            return
        upload.total += len(data)
        if upload.total > MAX_UPLOAD_BYTES:
            self._release(
                upload, f"upload exceeds the {MAX_UPLOAD_BYTES}-byte per-connection cap"
            )
            return
        if self._buffered + len(data) > MAX_CONNECTION_UPLOAD_BYTES:
            limit = MAX_CONNECTION_UPLOAD_BYTES
            self._release(upload, f"connection buffers more than {limit} upload bytes")
            return
        if index == len(upload.blobs):
            upload.blobs.append(bytearray())
            upload.complete.append(False)
        if upload.complete[index]:
            self._release(upload, f"chunk appends to already-finished blob {index}")
            return
        upload.blobs[index] += data
        self._buffered += len(data)
        if envelope.get("eof"):
            upload.complete[index] = True

    def finish(self, upload_id: Any) -> List[bytearray]:
        """Claim a completed upload's blobs for the referencing request.

        Raises :class:`~repro.errors.SerializationError` for unknown,
        incomplete, or poisoned uploads — surfaced as an ordinary error
        reply to the request, never as a dead connection.
        """
        upload = self._uploads.pop(str(upload_id), None)
        if upload is None:
            raise SerializationError(
                f"request references unknown upload {upload_id!r}"
            )
        self._release(upload)
        if upload.error is not None:
            raise SerializationError(f"upload {upload_id!r} failed: {upload.error}")
        if not all(upload.complete):
            raise SerializationError(
                f"upload {upload_id!r} is incomplete "
                f"({sum(upload.complete)} of {len(upload.blobs)} blobs finished)"
            )
        return upload.blobs
