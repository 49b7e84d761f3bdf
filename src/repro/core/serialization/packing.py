"""Base64 packing of numeric arrays for the JSON wire codecs.

The cipher and evaluation-key codecs originally serialized every RNS residue
polynomial as nested Python integer lists, which makes a CKKS evaluation-key
blob roughly an order of magnitude larger than the underlying data (each
residue costs ~10-20 JSON characters instead of 8 bytes).  This module packs
``int64`` / ``float64`` arrays as base64 strings with an explicit dtype and
shape, cutting the encoded size ~10x while staying plain JSON.

Decoding is backward compatible: :func:`unpack_array` accepts both the packed
form and the legacy (nested-)list form, so blobs produced by older builds
still round-trip.

Beside the base64 path sits a *binary fast path* for the binary wire
protocol (:mod:`repro.wire`): inside a :func:`raw_blobs` context,
:func:`pack_array` emits ``{"raw": <bytes>, "dtype", "shape"}`` — the raw
little-endian buffer, no base64 — which the wire codec lifts into a
length-delimited blob record.  :func:`unpack_array` accepts the raw form
unconditionally (including zero-copy ``memoryview`` slices of a received
frame), and :func:`jsonable_blobs` converts raw records back to base64 for
the places that must stay plain JSON (the session store on disk).

A *seed record*, ``{"seed": "<64 hex digits>"}``, may stand wherever a packed
uniformly random polynomial would: the reader expands the 32-byte seed
itself (:mod:`repro.ckks.sampling`).  Writers emit it by default
(:func:`pack_seed`); inside an :func:`expanded_seeds` context — a connection
whose peer did not announce the ``seeded`` feature — they write the
polynomial out instead, which is exactly the format of builds before seeds.
Readers accept both, always (:func:`unpack_seed`).

A *bit-packed record*, ``{"dtype": "bits", "bits": [b_0, ...], "shape": [K,
N], ...}``, holds row ``k`` of a residue matrix as the ``N·b_k/8`` bytes of
the little-endian integer ``sum_i v_i · 2^(i·b_k)``, rows concatenated.
Writers emit it inside :func:`bitpacked_residues` only; readers accept it always.
"""

from __future__ import annotations

import base64
import functools
import threading
from contextlib import contextmanager
from typing import Any, Sequence

import numpy as np

from ...errors import SerializationError

#: Wire dtype tags (explicitly little-endian on the wire).
_DTYPES = {
    "u1": np.uint8,
    "u2": np.uint16,
    "u4": np.uint32,
    "i8": np.int64,
    "f8": np.float64,
}


def _integer_tag(array: np.ndarray) -> str:
    """Smallest wire dtype holding every element of an integer array.

    RNS residues are non-negative and bounded by their prime, so 30-bit
    primes fit ``u4`` — half the bytes of ``i8`` on top of the base64 win.
    """
    if array.size == 0 or array.min() < 0:
        return "i8"
    peak = int(array.max())
    if peak < 1 << 8:
        return "u1"
    if peak < 1 << 16:
        return "u2"
    if peak < 1 << 32:
        return "u4"
    return "i8"


#: This thread's packing context: ``raw`` (see :func:`raw_blobs`),
#: ``expanded`` (see :func:`expanded_seeds`) and ``bitpacked`` (see
#: :func:`bitpacked_residues`), all off unless entered.
_PACKING = threading.local()

#: Length of the seed a seed record carries (``repro.ckks.sampling.SEED_BYTES``).
_SEED_BYTES = 32


@contextmanager
def _packing(flag: str):
    previous = getattr(_PACKING, flag, False)
    setattr(_PACKING, flag, True)
    try:
        yield
    finally:
        setattr(_PACKING, flag, previous)


def raw_blobs():
    """Make :func:`pack_array` emit raw-bytes records in this thread.

    The binary wire path wraps message building in this context so packed
    arrays skip base64 entirely: ``{"raw": <bytes>, "dtype", "shape"}``
    instead of ``{"b64": <str>, ...}``.  Raw records are *not* JSON-able —
    they exist to be lifted into binary blob records by the wire codec (or
    converted back with :func:`jsonable_blobs`).
    """
    return _packing("raw")


def expanded_seeds():
    """Make :func:`pack_seed` decline in this thread, so writers send whole polynomials.

    Entered around message building for a peer that did not announce the
    ``seeded`` feature: the messages then have the record shapes and lengths
    of every build before seeds.
    """
    return _packing("expanded")


def bitpacked_residues():
    """Make :func:`pack_residues` write bit-packed records in this thread: for
    a peer granted ``bitpacked``, and a reply to a bit-packed request."""
    return _packing("bitpacked")


def pack_seed(seed: bytes) -> "dict | None":
    """The seed record standing in for a uniform polynomial — or ``None``
    inside :func:`expanded_seeds`, where the caller packs the polynomial."""
    if getattr(_PACKING, "expanded", False):
        return None
    return {"seed": seed.hex()}


def unpack_seed(record: Any) -> "bytes | None":
    """The 32 bytes of a seed record, or ``None`` when ``record`` is not one.

    A record that says ``seed`` but does not hold 64 hex digits raises
    :class:`~repro.errors.SerializationError`.
    """
    if not isinstance(record, dict) or "seed" not in record:
        return None
    text = record["seed"]
    try:
        seed = bytes.fromhex(text) if isinstance(text, str) else b""
    except ValueError:
        seed = b""
    if len(seed) != _SEED_BYTES:
        raise SerializationError(f"a seed record carries {_SEED_BYTES} bytes as hex digits")
    return seed


def pack_array(array: Any, dtype: Any = None) -> dict:
    """Encode an int/float array as ``{"b64", "dtype", "shape"}``.

    ``dtype`` forces the *semantic* dtype (integers vs floats); integers are
    stored at the smallest width that holds every element.  Inside a
    :func:`raw_blobs` context the payload is raw bytes under ``"raw"``
    instead of base64 under ``"b64"``.
    """
    array = np.asarray(array)
    if dtype is None:
        dtype = np.int64 if np.issubdtype(array.dtype, np.integer) else np.float64
    if np.dtype(dtype) == np.int64:
        array = np.ascontiguousarray(array, dtype=np.int64)
        tag = _integer_tag(array)
    else:
        tag = "f8"
    data = np.ascontiguousarray(array, dtype="<" + tag)
    return _with_payload({"dtype": tag, "shape": [int(dim) for dim in data.shape]}, data.tobytes())


def _with_payload(record: dict, payload: bytes) -> dict:
    """``record`` carrying ``payload``: raw inside :func:`raw_blobs`, else base64."""
    if getattr(_PACKING, "raw", False):
        record["raw"] = payload
    else:
        record["b64"] = base64.b64encode(payload).decode("ascii")
    return record


def jsonable_blobs(node: Any) -> Any:
    """Deep-copy a tree, converting raw packed records back to base64.

    The inverse bridge of :func:`raw_blobs` for sinks that must stay plain
    JSON: the session store persists key blobs received over the binary
    wire (raw ``memoryview`` records) through here before ``json.dump``.
    Trees without raw records pass through structurally unchanged.
    """
    if isinstance(node, dict):
        raw = node.get("raw")
        if isinstance(raw, (bytes, bytearray, memoryview)):
            converted = {k: v for k, v in node.items() if k != "raw"}
            converted["b64"] = base64.b64encode(bytes(raw)).decode("ascii")
            return converted
        return {key: jsonable_blobs(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [jsonable_blobs(item) for item in node]
    return node


def unpack_array(data: Any, dtype: Any = None) -> np.ndarray:
    """Inverse of :func:`pack_array`; also accepts legacy (nested) lists.

    Accepts both packed payload forms — base64 under ``"b64"`` and raw bytes
    (``bytes`` / ``bytearray`` / ``memoryview``, e.g. a zero-copy slice of a
    received binary frame) under ``"raw"``.  ``dtype`` is the dtype legacy
    lists are coerced to (packed payloads carry their own); a packed payload
    whose byte count disagrees with its declared shape raises
    :class:`~repro.errors.SerializationError`.
    """
    if isinstance(data, dict) and ("b64" in data or "raw" in data):
        tag = str(data.get("dtype", "f8"))
        if tag not in _DTYPES:
            raise SerializationError(f"unknown packed dtype {tag!r}")
        raw = _payload(data)
        try:
            array = np.frombuffer(raw, dtype="<" + tag)
        except ValueError as exc:
            raise SerializationError(f"malformed packed array: {exc}") from exc
        shape = tuple(int(dim) for dim in data.get("shape", [array.size]))
        expected = int(np.prod(shape)) if shape else 1
        if array.size != expected:
            raise SerializationError(
                f"packed array carries {array.size} elements, shape "
                f"{list(shape)} expects {expected}"
            )
        # frombuffer views are read-only; copy into native byte order
        # (integer tags widen back to int64, the in-memory residue dtype).
        target = np.float64 if tag == "f8" else np.int64
        return array.reshape(shape).astype(target, copy=True)
    return np.asarray(data, dtype=np.float64 if dtype is None else dtype)


def pack_values(values: Sequence[float]) -> dict:
    """Pack a 1-D float vector (cipher slot values, plain inputs)."""
    return pack_array(np.atleast_1d(np.asarray(values, dtype=np.float64)).ravel())


def unpack_values(data: Any) -> np.ndarray:
    """Inverse of :func:`pack_values`; accepts legacy float lists."""
    return unpack_array(data, dtype=np.float64).ravel()


@functools.lru_cache(maxsize=32)
def _period(width: int) -> tuple:
    """64 values of ``width`` bits fill exactly ``width`` little-endian 64-bit
    words.  Per value: its word and shift in them; per rank ``r``, the ``r``-th
    value starting in each word (64, a zero column, where none does); the
    values that spill into the next word, that word and the shift up into it."""
    start = np.arange(64) * width
    word, shift = start >> 6, start & 63
    counts = np.bincount(word, minlength=width)
    firsts = np.cumsum(counts) - counts
    ranks = [np.where(rank < counts, firsts + rank, 64) for rank in range(counts.max())]
    spill = np.flatnonzero(shift + width > 64)
    table = (word, shift.astype(np.uint64), *ranks, spill, word[spill] + 1, (64 - shift[spill]).astype(np.uint64))
    for array in table:  # shared by every caller
        array.flags.writeable = False
    return table[:2], table[2:-3], table[-3:]


def _pack_row(row: np.ndarray, width: int) -> bytes:
    """One row's ``len(row)·width/8`` bytes, 64 values (``width`` words) at a time."""
    (word, shift), ranks, (spill, target, lift) = _period(width)
    values = np.zeros((-(-len(row) // 64), 64), dtype=np.uint64)
    values.reshape(-1)[: len(row)] = row
    shifted = np.zeros((len(values), 65), dtype=np.uint64)
    shifted[:, :64] = values << shift
    words = shifted[:, ranks[0]]
    for columns in ranks[1:]:
        words |= shifted[:, columns]
    words[:, target] |= values[:, spill] >> lift
    return words.astype("<u8").tobytes()[: len(row) * width // 8]


def _unpack_row(data: np.ndarray, width: int, degree: int) -> np.ndarray:
    """Inverse of :func:`_pack_row`: a value is its word shifted down, or'd
    with the next word's low bits where it spills."""
    (word, shift), _ranks, (spill, target, lift) = _period(width)
    words = np.zeros(-(-degree // 64) * width, dtype="<u8")
    words.view(np.uint8)[: len(data)] = data
    words = words.reshape(-1, width)
    values = words[:, word] >> shift
    values[:, spill] |= words[:, target] << lift
    values &= np.uint64((1 << width) - 1)
    return values.reshape(-1)[:degree]


def pack_residues(residues: Any, primes: Sequence[int] = ()) -> dict:
    """Pack a 2-D int64 RNS residue matrix (one row per prime in ``primes``):
    ``u4`` words, or inside :func:`bitpacked_residues` row ``k`` at
    ``primes[k].bit_length()`` bits (where ``N`` is a multiple of 8)."""
    residues = np.asarray(residues)
    bits = [int(prime).bit_length() for prime in primes]
    if not (getattr(_PACKING, "bitpacked", False) and bits and len(bits) == len(residues)
            and residues.shape[1] % 8 == 0 and max(bits) <= 32):
        return pack_array(residues, dtype=np.int64)
    payload = b"".join(_pack_row(row, width) for row, width in zip(residues, bits))
    return _with_payload({"dtype": "bits", "bits": bits, "shape": list(residues.shape)}, payload)


def _payload(data: dict) -> Any:
    """The bytes of a packed record: its ``raw`` buffer or decoded ``b64``."""
    if "raw" in data:
        raw = data["raw"]
        if not isinstance(raw, (bytes, bytearray, memoryview)):
            raise SerializationError(f"raw payload must be bytes-like, got {type(raw).__name__}")
        return raw
    try:
        return base64.b64decode(str(data["b64"]), validate=True)
    except (ValueError, TypeError) as exc:
        raise SerializationError(f"malformed base64 payload: {exc}") from exc


def unpack_residues(data: Any) -> np.ndarray:
    """Inverse of :func:`pack_residues`; also accepts legacy row lists.  A
    bit-packed record whose layout does not add up raises
    :class:`~repro.errors.SerializationError`."""
    if not (isinstance(data, dict) and data.get("dtype") == "bits"):
        return unpack_array(data, dtype=np.int64)
    shape, bits = data.get("shape"), data.get("bits")
    if not (isinstance(shape, list) and len(shape) == 2 and all(type(d) is int and d >= 0 for d in shape)):
        raise SerializationError(f"a bit-packed record's shape must be [rows, N], got {shape!r}")
    if not (isinstance(bits, list) and len(bits) == shape[0]):
        raise SerializationError(f"a bit-packed record needs {shape[0]} widths, one a row, got {bits!r}")
    if not all(type(width) is int and 1 <= width <= 32 for width in bits):
        raise SerializationError(f"bit widths must lie in 1..32, got {bits}")
    if any(shape[1] * width % 8 for width in bits):
        raise SerializationError(f"N = {shape[1]} times a width of {bits} is not whole bytes")
    sizes = [shape[1] * width // 8 for width in bits]
    flat = np.frombuffer(_payload(data), dtype=np.uint8)
    if len(flat) != sum(sizes):
        raise SerializationError(f"bit-packed payload of {len(flat)} bytes, widths {bits} need {sum(sizes)}")
    residues = np.empty(shape, dtype=np.int64)
    ends = np.cumsum(sizes)
    for k, (width, size) in enumerate(zip(bits, sizes)):
        residues[k] = _unpack_row(flat[ends[k] - size : ends[k]], width, shape[1])
    return residues


def carries_bitpacked(node: Any) -> bool:
    """Whether any record in a message tree is bit-packed."""
    if isinstance(node, (list, tuple)):
        return any(carries_bitpacked(item) for item in node)
    return isinstance(node, dict) and (
        node.get("dtype") == "bits" or any(carries_bitpacked(v) for v in node.values())
    )
