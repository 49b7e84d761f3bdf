"""JSON wire messages for the serving layer (request/response framing).

The program interchange formats (:mod:`.proto`, :mod:`.json_format`) describe
*programs*; this module describes the *requests and responses* exchanged
between a serving client and server.  Messages are JSON objects transported as
newline-delimited UTF-8 over a byte stream — the same human-readable wire the
JSON program format uses, so a request can be assembled with nothing more
than ``json.dumps`` on the client side.

A request looks like::

    {"op": "submit", "program": "squares", "inputs": {"x": [1.0, 2.0]},
     "client_id": "alice"}

and a response like::

    {"ok": true, "outputs": {"y": [1.0, 4.0]}, "stats": {...}}

Errors travel as ``{"ok": false, "error": "...", "kind": "ServingError"}``.

The encrypted-input path (client-held keys) adds two shapes.  A ``session``
request registers the client's exported evaluation keys::

    {"op": "session", "program": "squares", "client_id": "alice",
     "evaluation_keys": {...}}

and a ``submit`` may then carry a pre-encrypted cipher bundle instead of
plaintext inputs::

    {"op": "submit", "program": "squares", "client_id": "alice",
     "bundle": {"program_signature": "...", "ciphertexts": {...}, ...}}

to which the server replies ``{"ok": true, "encrypted_outputs": {...}}`` —
ciphertexts only the submitting client can decrypt.
"""

from __future__ import annotations

import json
import numbers
import reprlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from ...errors import SerializationError

#: SLO classes a submit may carry.  ``tight`` requests are never held back
#: to fill a batch, ``relaxed`` ones always linger the full batch window,
#: ``standard`` ones linger only as much as their deadline slack allows.
SLO_CLASSES = ("tight", "standard", "relaxed")


def encode_values(values: Dict[str, Any]) -> Dict[str, list]:
    """Convert a name -> vector mapping into plain JSON-serializable lists."""
    encoded = {}
    for name, value in values.items():
        array = np.atleast_1d(np.asarray(value, dtype=np.float64)).ravel()
        encoded[str(name)] = [float(v) for v in array]
    return encoded


def decode_values(values: Dict[str, Any]) -> Dict[str, np.ndarray]:
    """Inverse of :func:`encode_values`.

    Accepts plain lists (the JSON wire) and packed-array records (the binary
    wire ships value vectors as blobs — base64 or raw form, both handled by
    :func:`~repro.core.serialization.packing.unpack_values`).
    """
    from .packing import unpack_values

    if not isinstance(values, dict):
        raise SerializationError("'inputs' must be an object mapping names to values")
    decoded = {}
    for name, value in values.items():
        try:
            if isinstance(value, dict):
                decoded[str(name)] = unpack_values(value)
            else:
                decoded[str(name)] = np.atleast_1d(
                    np.asarray(value, dtype=np.float64)
                ).ravel()
        except (TypeError, ValueError) as exc:
            raise SerializationError(f"input {name!r} is not numeric: {exc}") from exc
    return decoded


# -- the request table ----------------------------------------------------------
# Which ops exist, which fields each carries, what a valid value of a field is,
# under which key the answer comes back and who answers: declared once, here.
# Both ends of the wire, the connection classes, ``ServingClient.call``,
# ``cli cluster`` and the op table of ``docs/wire-protocol.md`` read these rows.


def _typed(
    kind: type,
    accept: Callable[[Any], Any] = lambda value: True,
    carry: Callable[[Any], Any] = lambda value: value,
) -> Callable[[Any], Any]:
    """A field checker: a ``kind`` (a bool is never a number) that ``accept``
    admits, carried as ``carry(value)`` (numpy scalars are not JSON)."""

    def check(value: Any) -> Any:
        if isinstance(value, bool) is not (kind is bool) or not isinstance(value, kind):
            raise TypeError
        if not accept(value):
            raise ValueError
        return carry(value)

    return check


@dataclass(frozen=True)
class Field:
    """One request field: what a valid value is, on either side of the wire."""

    #: Completes "must be ..." in an error message.
    expects: str
    #: The value as a message carries it; raises TypeError / ValueError when invalid.
    check: Callable[[Any], Any]
    #: What an absent field means — and therefore the value that is never sent.
    default: Any = None


#: Every request field, in the order a built request lists them.
FIELDS: Dict[str, Field] = {
    "program": Field("a program name (a string)", _typed(str)),
    "inputs": Field("an object mapping input names to numeric vectors", decode_values),
    "bundle": Field("a wire-encoded cipher bundle (an object)", _typed(dict)),
    "evaluation_keys": Field("an exported evaluation-key set (an object)", _typed(dict)),
    "client_id": Field("a string", _typed(str), default="default"),
    "output_size": Field("a positive integer", _typed(numbers.Integral, lambda n: n >= 1, int)),
    "shard": Field("a non-negative integer", _typed(numbers.Integral, lambda n: n >= 0, int)),
    "trace_id": Field("a string", _typed(str)),
    "trace": Field("a boolean", _typed(bool), default=False),
    "format": Field("a string", _typed(str)),
    "limit": Field("a non-negative integer", _typed(numbers.Integral, lambda n: n >= 0, int)),
    "deadline_ms": Field("a positive number", _typed(numbers.Real, lambda ms: ms > 0, float)),
    "slo_class": Field(f"one of {SLO_CLASSES}", _typed(str, SLO_CLASSES.__contains__)),
    "host": Field("a non-empty string", _typed(str, len)),
    "port": Field("a TCP port (1-65535)", _typed(numbers.Integral, lambda n: 0 < n < 65536, int)),
}

#: Fields every op may carry: whose request it is, and the trace it belongs to.
COMMON_FIELDS = ("client_id", "trace_id")


@dataclass(frozen=True)
class Op:
    """One request op: one row of the wire's instruction table."""

    name: str
    required: Tuple[str, ...] = ()
    optional: Tuple[str, ...] = ()
    #: The reply key the answer comes back under: the op's own name unless
    #: given; ``None`` when the answer is the whole reply (a submit's key
    #: depends on what it carried: ``outputs`` or ``encrypted_outputs``).
    reply: Optional[str] = ""
    #: A cluster router forwards the op to its client's shard; every other op
    #: it answers itself.
    forwarded: bool = False
    #: Only a cluster router answers; a single-process server refuses.
    cluster_only: bool = False

    def __post_init__(self) -> None:
        if self.reply == "":
            object.__setattr__(self, "reply", self.name)

    @property
    def fields(self) -> Tuple[str, ...]:
        """Every field the op may carry."""
        return self.required + self.optional + COMMON_FIELDS


#: The request ops.  ``route`` (which shard a client consistent-hashes to),
#: ``drain`` (take a shard out of the ring without stopping it), ``rejoin``
#: (return a shard to the ring, respawning it if dead) and ``join`` (attach an
#: already-running remote shard endpoint by ``host``/``port``) are cluster
#: operations.  The telemetry ops — ``metrics`` (registry snapshot; ``format:
#: "prometheus"`` adds the text exposition under ``"prometheus"``), ``trace``
#: (the recorded spans of one trace id) and ``slow`` (recent slow requests,
#: at most ``limit``) — are answered by both kinds of server, the router
#: aggregating across shards.
OPS: Dict[str, Op] = {
    row.name: row
    for row in (
        Op(
            "submit",
            ("program",),
            ("inputs", "bundle", "output_size", "trace", "deadline_ms", "slo_class"),
            reply=None,
            forwarded=True,
        ),
        Op("session", ("program", "evaluation_keys"), forwarded=True),
        Op("stats"),
        Op("list", reply="programs"),
        Op("ping", reply="pong"),
        Op("route", cluster_only=True),
        Op("health"),
        Op("drain", ("shard",), cluster_only=True),
        Op("rejoin", ("shard",), cluster_only=True),
        Op("join", ("host", "port"), cluster_only=True),
        Op("metrics", optional=("format",)),
        Op("trace", ("trace_id",)),
        Op("slow", optional=("limit",)),
    )
}

#: Operations a client may request: the table's keys.
REQUEST_OPS = tuple(OPS)


def request_row(op: Any) -> Op:
    """The table row of ``op``; an op the table lacks is a SerializationError."""
    row = OPS.get(op) if isinstance(op, str) else None
    if row is None:
        raise SerializationError(f"unknown request op {op!r}")
    return row


def _checked(op: Any, name: str, value: Any) -> Any:
    """``value`` as field ``name`` carries it, or a SerializationError naming both."""
    try:
        return FIELDS[name].check(value)
    except (TypeError, ValueError, SerializationError) as exc:
        reason = f" ({exc})" if str(exc) else ""
        raise SerializationError(
            f"{op} request: {name!r} must be {FIELDS[name].expects}, "
            f"got {reprlib.repr(value)}{reason}"
        ) from None


def _carried(row: Op, fields: Dict[str, Any]) -> Dict[str, Any]:
    """The checked fields of one request of ``row``'s op, in table order.

    Both sides of the wire run this one loop, so a value one side builds is a
    value the other accepts.  ``None`` means absent; a known field is checked
    even where the row does not list it.
    """
    message: Dict[str, Any] = {}
    for name, field in FIELDS.items():
        value = fields.get(name)
        if value is not None:
            message[name] = _checked(row.name, name, value)
        elif name in row.required:
            raise SerializationError(f"{row.name} requests need {name!r}: {field.expects}")
    if "inputs" in message and "bundle" in message:
        raise SerializationError(f"a {row.name} carries either 'inputs' or a 'bundle', not both")
    return message


def request_trace_id(message: Dict[str, Any]) -> Optional[str]:
    """The validated trace id a request carries (None when untraced)."""
    trace_id = message.get("trace_id")
    return trace_id if trace_id is None else _checked(message.get("op"), "trace_id", trace_id)


def build_request(op: str, pack_inputs: bool = False, **fields: Any) -> Dict[str, Any]:
    """Build one client request as a message dict (framing-agnostic).

    ``fields`` are the op's fields by name (:data:`OPS`, :data:`FIELDS`); one
    the op does not carry, or an invalid value, is a
    :class:`~repro.errors.SerializationError` naming op and field, and ``None``
    or a field's default is left out.  ``bundle`` (a wire-encoded cipher bundle)
    replaces ``inputs`` on the encrypted path; ``trace_id`` propagates a
    distributed-trace id (a ``trace`` op *queries* one) and ``trace=True`` asks
    the server to echo the recorded spans in the reply; ``deadline_ms`` /
    ``slo_class`` annotate a submit with its latency SLO (the engine rejects a
    request whose modeled wait already exceeds the deadline:
    :class:`~repro.errors.DeadlineInfeasibleError` on the wire).
    ``pack_inputs`` encodes input vectors as packed arrays instead of float
    lists — the binary framing ships them as blob records.
    """
    row = request_row(op)
    sent = {}
    for name, value in fields.items():
        if value is None or (name in FIELDS and value == FIELDS[name].default):
            continue
        if name not in row.fields:
            raise SerializationError(f"{op} requests carry no {name!r} field")
        sent[name] = value
    message = {"op": op, **_carried(row, sent)}
    values = message.get("inputs")
    if values is not None and pack_inputs:
        from .packing import pack_values

        message["inputs"] = {name: pack_values(value) for name, value in values.items()}
    elif values is not None:
        message["inputs"] = encode_values(values)
    return message


def encode_request(op: str, **fields: Any) -> str:
    """Build one JSON wire line for a client request (see :func:`build_request`)."""
    return json.dumps(build_request(op, **fields), separators=(",", ":")) + "\n"


def validate_request(message: Any) -> Dict[str, Any]:
    """Validate one parsed request message (shared by both wire framings).

    Returns the request with every known field checked (a ``null`` one
    dropped), ``client_id`` defaulted, and a submit without a ``bundle``
    carrying (possibly empty) decoded ``inputs``.
    """
    if not isinstance(message, dict):
        raise SerializationError("request must be a JSON object")
    row = request_row(message.get("op"))
    request = {key: value for key, value in message.items() if key not in FIELDS}
    request.update(_carried(row, message))
    for name in row.fields:
        if FIELDS[name].default is not None:
            request.setdefault(name, FIELDS[name].default)
    if "inputs" in row.fields and "bundle" not in request:
        request.setdefault("inputs", {})
    return request


def build_response(
    outputs: Optional[Dict[str, Any]] = None,
    stats: Optional[Dict[str, Any]] = None,
    payload: Optional[Dict[str, Any]] = None,
    pack_outputs: bool = False,
) -> Dict[str, Any]:
    """Build one successful response as a message dict (framing-agnostic).

    ``pack_outputs`` encodes output vectors as packed arrays — the binary
    framing lifts them into blob records instead of JSON float lists.
    """
    message: Dict[str, Any] = {"ok": True}
    if outputs is not None:
        if pack_outputs:
            from .packing import pack_values

            message["outputs"] = {
                str(name): pack_values(value) for name, value in outputs.items()
            }
        else:
            message["outputs"] = encode_values(outputs)
    if stats is not None:
        message["stats"] = stats
    if payload is not None:
        message.update(payload)
    return message


def build_error(error: BaseException, trace_id: Optional[str] = None) -> Dict[str, Any]:
    """Build one failed-request response as a message dict.

    Quota rejections (anything carrying a ``retry_after`` attribute) include
    it in the reply — the 429 ``Retry-After`` of this wire — so clients can
    back off precisely.  ``trace_id`` echoes the request's trace id so a
    failed request stays correlatable (``cluster trace <id>`` finds the spans
    recorded before the failure).
    """
    message: Dict[str, Any] = {
        "ok": False,
        "error": str(error),
        "kind": type(error).__name__,
    }
    retry_after = getattr(error, "retry_after", None)
    if retry_after is not None:
        message["retry_after"] = round(float(retry_after), 6)
    if trace_id is not None:
        message["trace_id"] = str(trace_id)
    return message


def splice_field(line: str, key: str, value: Any) -> str:
    """Insert one top-level field into an encoded wire line without reparsing.

    The cluster router forwards request/response lines *verbatim* — it never
    pays a decode/re-encode of a possibly multi-megabyte ciphertext payload.
    This keeps that property for telemetry: injecting a ``trace_id`` into a
    forwarded request (or attaching a ``trace`` object to a reply) is a
    string splice at the closing brace.  The line must be one encoded JSON
    object (as a JSON-lines connection carries them); behaviour on anything
    else is undefined.
    """
    stripped = line.rstrip("\n")
    end = stripped.rfind("}")
    if end < 0:
        raise SerializationError("cannot splice into a non-object wire line")
    body = stripped[:end].rstrip()
    separator = "" if body.endswith("{") else ","
    encoded = json.dumps({key: value}, separators=(",", ":"))[1:-1]
    return f"{body}{separator}{encoded}}}\n"


def decode_response(line: str) -> Dict[str, Any]:
    """Parse one JSON response line; outputs come back as numpy arrays."""
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"malformed response JSON: {exc}") from exc
    return finish_response(message)


def finish_response(message: Any) -> Dict[str, Any]:
    """Validate one parsed response message; decodes output vectors.

    Shared by both framings: the JSON path parses a line first, the binary
    path hands over a rehydrated frame envelope.
    """
    if not isinstance(message, dict) or "ok" not in message:
        raise SerializationError("response must be a JSON object with an 'ok' field")
    if message["ok"] and "outputs" in message:
        message["outputs"] = decode_values(message["outputs"])
    return message
