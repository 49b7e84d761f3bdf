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
from typing import Any, Dict, Optional

import numpy as np

from ...errors import SerializationError

#: Operations a client may request.  ``route`` (which shard a client
#: consistent-hashes to), ``drain`` (take a shard out of the ring without
#: stopping it), ``rejoin`` (return a shard to the ring, respawning it if
#: dead), and ``join`` (attach an already-running remote shard endpoint to
#: the ring by ``host``/``port``) are answered by cluster routers only;
#: single-process servers reject them with a ServingError reply.  ``health``
#: is answered by both.  The telemetry ops — ``metrics`` (registry snapshot,
#: optionally rendered as Prometheus text), ``trace`` (the recorded spans of
#: one trace id), and ``slow`` (recent slow requests) — are answered by
#: both, with the router aggregating across shards.
REQUEST_OPS = (
    "submit",
    "session",
    "stats",
    "list",
    "ping",
    "route",
    "health",
    "drain",
    "rejoin",
    "join",
    "metrics",
    "trace",
    "slow",
)

#: SLO classes a submit may carry.  ``tight`` requests are never held back
#: to fill a batch, ``relaxed`` ones always linger the full batch window,
#: ``standard`` ones linger only as much as their deadline slack allows.
SLO_CLASSES = ("tight", "standard", "relaxed")

#: Ops that address one shard and therefore require a ``shard`` index.
SHARD_OPS = ("drain", "rejoin")


def request_trace_id(message: Dict[str, Any]) -> Optional[str]:
    """The validated trace id a request carries (None when untraced)."""
    trace_id = message.get("trace_id")
    if trace_id is not None and not isinstance(trace_id, str):
        raise SerializationError("'trace_id' must be a string")
    return trace_id


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


def build_request(
    op: str,
    program: Optional[str] = None,
    inputs: Optional[Dict[str, Any]] = None,
    client_id: str = "default",
    output_size: Optional[int] = None,
    bundle: Optional[Dict[str, Any]] = None,
    evaluation_keys: Optional[Dict[str, Any]] = None,
    shard: Optional[int] = None,
    trace_id: Optional[str] = None,
    trace: bool = False,
    fmt: Optional[str] = None,
    limit: Optional[int] = None,
    pack_inputs: bool = False,
    deadline_ms: Optional[float] = None,
    slo_class: Optional[str] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
) -> Dict[str, Any]:
    """Build one client request as a message dict (framing-agnostic).

    ``bundle`` (a wire-encoded cipher bundle) replaces ``inputs`` on the
    encrypted path; ``evaluation_keys`` accompanies a ``session`` request;
    ``shard`` addresses the cluster admin ops (``drain`` / ``rejoin``);
    ``host``/``port`` name the remote endpoint of a ``join`` op.

    ``trace_id`` propagates a distributed-trace id (a ``trace`` op *queries*
    one); ``trace=True`` additionally asks the server to echo the recorded
    spans in the reply.  ``fmt`` selects the exposition format of a
    ``metrics`` op (``"prometheus"``); ``limit`` caps a ``slow`` op's rows.
    ``pack_inputs`` encodes input vectors as packed arrays instead of float
    lists — the binary framing ships them as blob records.

    ``deadline_ms`` / ``slo_class`` annotate a submit with its latency SLO:
    the engine rejects requests whose modeled wait already exceeds the
    deadline (:class:`~repro.errors.DeadlineInfeasibleError` on the wire)
    and decides batch-vs-solo per request against it.
    """
    if op not in REQUEST_OPS:
        raise SerializationError(f"unknown request op {op!r}")
    if inputs is not None and bundle is not None:
        raise SerializationError("a request carries either inputs or a bundle, not both")
    if op in SHARD_OPS and shard is None:
        raise SerializationError(f"{op} requests need a 'shard' index")
    if op == "join" and (host is None or port is None):
        raise SerializationError("join requests need a 'host' and a 'port'")
    if op == "trace" and not trace_id:
        raise SerializationError("trace requests need a 'trace_id'")
    if slo_class is not None and slo_class not in SLO_CLASSES:
        raise SerializationError(
            f"unknown slo_class {slo_class!r}; expected one of {SLO_CLASSES}"
        )
    if deadline_ms is not None and float(deadline_ms) <= 0:
        raise SerializationError("'deadline_ms' must be a positive number")
    message: Dict[str, Any] = {"op": op}
    if program is not None:
        message["program"] = program
    if inputs is not None:
        if pack_inputs:
            from .packing import pack_values

            message["inputs"] = {
                str(name): pack_values(value) for name, value in inputs.items()
            }
        else:
            message["inputs"] = encode_values(inputs)
    if bundle is not None:
        message["bundle"] = bundle
    if evaluation_keys is not None:
        message["evaluation_keys"] = evaluation_keys
    if client_id != "default":
        message["client_id"] = client_id
    if output_size is not None:
        message["output_size"] = int(output_size)
    if shard is not None:
        message["shard"] = int(shard)
    if trace_id is not None:
        message["trace_id"] = str(trace_id)
    if trace:
        message["trace"] = True
    if fmt is not None:
        message["format"] = str(fmt)
    if limit is not None:
        message["limit"] = int(limit)
    if deadline_ms is not None:
        message["deadline_ms"] = float(deadline_ms)
    if slo_class is not None:
        message["slo_class"] = str(slo_class)
    if host is not None:
        message["host"] = str(host)
    if port is not None:
        message["port"] = int(port)
    return message


def encode_request(op: str, **fields: Any) -> str:
    """Build one JSON wire line for a client request (see :func:`build_request`)."""
    return json.dumps(build_request(op, **fields), separators=(",", ":")) + "\n"


def validate_request(message: Any) -> Dict[str, Any]:
    """Validate one parsed request message (shared by both wire framings)."""
    if not isinstance(message, dict):
        raise SerializationError("request must be a JSON object")
    op = message.get("op")
    if op not in REQUEST_OPS:
        raise SerializationError(f"unknown request op {op!r}")
    if op == "submit":
        if not isinstance(message.get("program"), str):
            raise SerializationError("submit requests need a 'program' name")
        if "bundle" in message:
            if "inputs" in message:
                raise SerializationError(
                    "a submit carries either 'inputs' or a 'bundle', not both"
                )
            if not isinstance(message["bundle"], dict):
                raise SerializationError("'bundle' must be a JSON object")
        else:
            message["inputs"] = decode_values(message.get("inputs", {}))
        output_size = message.get("output_size")
        if output_size is not None:
            if not isinstance(output_size, int) or isinstance(output_size, bool) or output_size < 1:
                raise SerializationError(
                    f"'output_size' must be a positive integer, got {output_size!r}"
                )
        deadline_ms = message.get("deadline_ms")
        if deadline_ms is not None:
            if (
                not isinstance(deadline_ms, (int, float))
                or isinstance(deadline_ms, bool)
                or deadline_ms <= 0
            ):
                raise SerializationError(
                    f"'deadline_ms' must be a positive number, got {deadline_ms!r}"
                )
        slo_class = message.get("slo_class")
        if slo_class is not None and slo_class not in SLO_CLASSES:
            raise SerializationError(
                f"unknown slo_class {slo_class!r}; expected one of {SLO_CLASSES}"
            )
    if op == "join":
        if not isinstance(message.get("host"), str) or not message["host"]:
            raise SerializationError("join requests need a non-empty string 'host'")
        port = message.get("port")
        if not isinstance(port, int) or isinstance(port, bool) or not 0 < port < 65536:
            raise SerializationError(
                f"join requests need a TCP 'port' (1-65535), got {port!r}"
            )
    if op == "session":
        if not isinstance(message.get("program"), str):
            raise SerializationError("session requests need a 'program' name")
        if not isinstance(message.get("evaluation_keys"), dict):
            raise SerializationError(
                "session requests need an 'evaluation_keys' object"
            )
    if op in SHARD_OPS:
        shard = message.get("shard")
        if not isinstance(shard, int) or isinstance(shard, bool) or shard < 0:
            raise SerializationError(
                f"{op} requests need a non-negative integer 'shard', got {shard!r}"
            )
    if op == "trace" and not isinstance(message.get("trace_id"), str):
        raise SerializationError("trace requests need a string 'trace_id'")
    request_trace_id(message)
    message.setdefault("client_id", "default")
    return message


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
