"""Message layer of the binary wire protocol: envelope + blob records.

A request/response dict is transported as a protobuf-style field sequence::

    field 1 (length-delimited)           the *envelope*: UTF-8 JSON of the
                                         message with every packed array
                                         replaced by a ``{"$blob": i}``
                                         placeholder
    field 2 (length-delimited, repeated) the blobs, raw little-endian bytes,
                                         in placeholder order

The envelope stays tiny (op, names, scales, shapes) while ciphertext and
evaluation-key payloads — the megabytes — travel as raw bytes: no base64
(+33%), no JSON string scanning.  Decoding hands each blob back as a
:class:`memoryview` slice of the received payload, so a multi-megabyte key
set is never copied on its way to :func:`numpy.frombuffer`.

Packed arrays are recognized in both forms the serialization layer produces:
the binary fast path ``{"raw": <bytes>, "dtype", "shape"}`` (see
:func:`repro.core.serialization.packing.raw_blobs`) and the legacy base64
form ``{"b64": <str>, "dtype", "shape"}``, which is decoded to raw bytes on
the way out — so even a payload built for the JSON wire gains the binary
size win when sent through a binary connection.
"""

from __future__ import annotations

import base64
import binascii
import json
from typing import Any, Dict, List, Sequence, Tuple, Union

from ..core.serialization.wire import (
    WIRETYPE_LENGTH_DELIMITED,
    WIRETYPE_VARINT,
    encode_varint,
    iter_field_spans,
)
from ..errors import SerializationError, TransportError
from .frames import MAX_FRAME_BYTES

#: Envelope JSON is field 1, blobs are field 2 (both length-delimited).
_ENVELOPE_TAG = (1 << 3) | 2
_BLOB_TAG = (2 << 3) | 2

#: Placeholder key marking an extracted blob inside the envelope.
BLOB_KEY = "$blob"

#: Envelope key referencing a chunked upload instead of inline blobs.
UPLOAD_KEY = "$upload"

_Bytes = Union[bytes, bytearray, memoryview]


def _is_packed(node: Dict[str, Any]) -> bool:
    """Is this dict a packed-array record the codec should lift to a blob?"""
    if "dtype" not in node:
        return False
    if isinstance(node.get("raw"), (bytes, bytearray, memoryview)):
        return True
    return isinstance(node.get("b64"), str)


def _extract(node: Any, blobs: List[_Bytes]) -> Any:
    """Deep-copy ``node`` with packed arrays replaced by blob placeholders."""
    if isinstance(node, dict):
        if _is_packed(node):
            if "raw" in node:
                data: _Bytes = node["raw"]
            else:
                try:
                    data = base64.b64decode(node["b64"], validate=True)
                except (binascii.Error, ValueError) as exc:
                    raise TransportError(
                        f"malformed base64 blob in outgoing message: {exc}"
                    ) from exc
            meta = {
                key: value
                for key, value in node.items()
                if key not in ("raw", "b64")
            }
            meta[BLOB_KEY] = len(blobs)
            blobs.append(data)
            return meta
        return {key: _extract(value, blobs) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_extract(item, blobs) for item in node]
    return node


def split_message(message: Dict[str, Any]) -> Tuple[Dict[str, Any], List[_Bytes]]:
    """Split a message dict into (envelope, blobs) without encoding yet.

    Callers that stream blobs separately (chunked uploads) use the parts;
    :func:`encode_message` is the one-shot path.
    """
    blobs: List[_Bytes] = []
    envelope = _extract(message, blobs)
    return envelope, blobs


def encode_envelope(envelope: Dict[str, Any]) -> bytes:
    """Field 1 of a frame payload: the length-delimited envelope JSON."""
    data = json.dumps(envelope, separators=(",", ":")).encode("utf-8")
    return encode_varint(_ENVELOPE_TAG) + encode_varint(len(data)) + data


def encode_blob_record(blob: _Bytes) -> List[_Bytes]:
    """One field-2 blob record as frame-payload parts (header, then the blob
    by reference — a multi-megabyte buffer is never concatenated)."""
    if len(blob) > MAX_FRAME_BYTES:
        raise TransportError(
            f"a {len(blob)}-byte blob exceeds the frame limit; stream it "
            "as chunks instead"
        )
    return [encode_varint(_BLOB_TAG) + encode_varint(len(blob)), blob]


def join_message(envelope: Dict[str, Any], blobs: Sequence[_Bytes]) -> List[_Bytes]:
    """Frame-payload parts from (envelope, blobs), inverting :func:`split_message`.

    Returns a list of byte-like parts for a frame writer — blob bytes are
    passed through by reference, never concatenated, so a multi-megabyte
    ciphertext is written to the socket from its own buffer.
    """
    parts: List[_Bytes] = [encode_envelope(envelope)]
    for blob in blobs:
        parts.extend(encode_blob_record(blob))
    return parts


def encode_message(message: Dict[str, Any]) -> List[_Bytes]:
    """Encode a message dict as frame-payload parts (envelope + blobs)."""
    return join_message(*split_message(message))


def _iter_fields(view: memoryview):
    """Yield (field_number, value, end_offset) over a payload's
    length-delimited fields; values are zero-copy memoryview slices.
    Unknown scalar (varint) fields are skipped."""
    try:
        for field_number, wire_type, value, end in iter_field_spans(view):
            if wire_type == WIRETYPE_LENGTH_DELIMITED:
                yield field_number, value, end
            elif wire_type != WIRETYPE_VARINT:
                raise TransportError(
                    f"unsupported wire type {wire_type} in a frame payload"
                )
    except SerializationError as exc:
        raise TransportError(f"malformed frame payload: {exc}") from exc


def _parse_envelope(raw: memoryview) -> Dict[str, Any]:
    try:
        envelope = json.loads(bytes(raw).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"malformed frame envelope: {exc}") from exc
    if not isinstance(envelope, dict):
        raise TransportError("frame envelope must be a JSON object")
    return envelope


def decode_message(
    payload: _Bytes,
) -> Tuple[Dict[str, Any], List[memoryview]]:
    """Decode one frame payload into (envelope, blob slices).

    Blobs are memoryview slices of ``payload`` — zero-copy; they stay valid
    as long as the payload buffer lives.  Use :func:`rehydrate` to fold them
    back into the envelope.
    """
    view = memoryview(payload)
    envelope: Dict[str, Any] = {}
    saw_envelope = False
    blobs: List[memoryview] = []
    for field_number, value, _end in _iter_fields(view):
        if field_number == 1:
            if saw_envelope:
                raise TransportError("frame payload carries two envelopes")
            envelope = _parse_envelope(value)
            saw_envelope = True
        elif field_number == 2:
            blobs.append(value)
        # unknown length-delimited fields are skipped (forward compatibility)
    if not saw_envelope:
        raise TransportError("frame payload carries no envelope")
    return envelope, blobs


def peek_envelope(payload: _Bytes) -> Tuple[Dict[str, Any], int]:
    """Decode only the envelope; returns (envelope, envelope_end_offset).

    The router's passthrough path: look at op/client/trace of a forwarded
    frame without touching the blob bytes that follow.  The envelope field
    must come first in the payload (as :func:`encode_message` guarantees).
    """
    view = memoryview(payload)
    for field_number, value, end in _iter_fields(view):
        if field_number != 1:
            raise TransportError(
                "frame payload does not start with an envelope field"
            )
        return _parse_envelope(value), end
    raise TransportError("frame payload carries no envelope")


def replace_envelope(
    payload: _Bytes, envelope: Dict[str, Any]
) -> List[_Bytes]:
    """Payload parts with a rewritten envelope and the original blobs.

    Re-encodes only the (small) envelope field; every byte after it — the
    blob records — is relayed as one memoryview slice of the original
    payload.  This is how the router splices a ``trace_id`` into a forwarded
    binary request without re-encoding megabytes of ciphertext.
    """
    _old, end = peek_envelope(payload)
    return [encode_envelope(envelope), memoryview(payload)[end:]]


def rehydrate(
    envelope: Any, blobs: Sequence[_Bytes]
) -> Any:
    """Fold blob slices back into the envelope, inverting :func:`split_message`.

    Placeholders become ``{"raw": <memoryview>, ...}`` packed-array records,
    which :func:`repro.core.serialization.packing.unpack_array` accepts
    directly — the blob bytes are not copied here.
    """
    if isinstance(envelope, dict):
        if BLOB_KEY in envelope:
            index = envelope[BLOB_KEY]
            if not isinstance(index, int) or not 0 <= index < len(blobs):
                raise TransportError(
                    f"frame envelope references blob {index!r}, but the "
                    f"payload carries {len(blobs)}"
                )
            node = {
                key: value for key, value in envelope.items() if key != BLOB_KEY
            }
            node["raw"] = blobs[index]
            return node
        return {key: rehydrate(value, blobs) for key, value in envelope.items()}
    if isinstance(envelope, list):
        return [rehydrate(item, blobs) for item in envelope]
    return envelope
