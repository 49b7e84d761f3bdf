"""Minimal Protocol Buffers (proto3) wire-format primitives.

The EVA language has a serialized format defined with Protocol Buffers
(Figure 1 of the paper).  To avoid an external dependency this module
implements the subset of the proto3 wire format the schema needs: varints,
64-bit doubles, length-delimited fields (strings, sub-messages, packed
repeated doubles), and tag encoding/decoding with skipping of unknown fields.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Tuple

from ...errors import SerializationError

#: Proto3 wire types.
WIRETYPE_VARINT = 0
WIRETYPE_FIXED64 = 1
WIRETYPE_LENGTH_DELIMITED = 2
WIRETYPE_FIXED32 = 5


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a base-128 varint."""
    if 0 <= value < 0x80:
        return bytes((value,))
    if value < 0:
        raise SerializationError("varints must be non-negative")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int) -> Tuple[int, int]:
    """Decode a varint starting at ``offset``; return (value, next_offset)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise SerializationError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise SerializationError("varint too long")


def encode_tag(field_number: int, wire_type: int) -> bytes:
    return encode_varint((field_number << 3) | wire_type)


def encode_double_field(field_number: int, value: float) -> bytes:
    return encode_tag(field_number, WIRETYPE_FIXED64) + struct.pack("<d", float(value))


def encode_varint_field(field_number: int, value: int) -> bytes:
    return encode_tag(field_number, WIRETYPE_VARINT) + encode_varint(int(value))


def encode_bytes_field(field_number: int, payload: bytes) -> bytes:
    return (
        encode_tag(field_number, WIRETYPE_LENGTH_DELIMITED)
        + encode_varint(len(payload))
        + payload
    )


def encode_string_field(field_number: int, value: str) -> bytes:
    return encode_bytes_field(field_number, value.encode("utf-8"))


def encode_packed_doubles(field_number: int, values: "List[float]") -> bytes:
    return encode_bytes_field(field_number, struct.pack(f"<{len(values)}d", *values))


def iter_fields(data: bytes) -> Iterator[Tuple[int, int, object]]:
    """Iterate over (field_number, wire_type, raw_value) triples of a message.

    Varint fields yield ints, fixed64 fields yield 8-byte buffers, and
    length-delimited fields yield byte strings.  Unknown wire types raise.
    """
    for field_number, wire_type, value, _end in iter_field_spans(data):
        yield field_number, wire_type, value


def iter_field_spans(data) -> Iterator[Tuple[int, int, object, int]]:
    """:func:`iter_fields` plus the offset just past each field.

    Values are slices of ``data``: pass a :class:`memoryview` and
    length-delimited fields come back zero-copy.
    """
    offset = 0
    while offset < len(data):
        tag, offset = decode_varint(data, offset)
        field_number = tag >> 3
        wire_type = tag & 0x7
        if wire_type == WIRETYPE_VARINT:
            value, offset = decode_varint(data, offset)
            yield field_number, wire_type, value, offset
        elif wire_type == WIRETYPE_FIXED64:
            if offset + 8 > len(data):
                raise SerializationError("truncated fixed64 field")
            yield field_number, wire_type, data[offset : offset + 8], offset + 8
            offset += 8
        elif wire_type == WIRETYPE_LENGTH_DELIMITED:
            length, offset = decode_varint(data, offset)
            if offset + length > len(data):
                raise SerializationError("truncated length-delimited field")
            yield field_number, wire_type, data[offset : offset + length], offset + length
            offset += length
        elif wire_type == WIRETYPE_FIXED32:
            if offset + 4 > len(data):
                raise SerializationError("truncated fixed32 field")
            yield field_number, wire_type, data[offset : offset + 4], offset + 4
            offset += 4
        else:
            raise SerializationError(f"unsupported wire type {wire_type}")


def unpack_doubles(payload: bytes) -> List[float]:
    if len(payload) % 8 != 0:
        raise SerializationError("packed double payload has invalid length")
    return list(struct.unpack(f"<{len(payload) // 8}d", payload))


def unpack_double(raw: object) -> float:
    if isinstance(raw, bytes) and len(raw) == 8:
        (value,) = struct.unpack("<d", raw)
        return value
    raise SerializationError("expected a fixed64 field")
