"""Protocol side of the TCP front ends, and the client that talks to them.

Every listener speaks **two framings on the same socket**:

* newline-delimited JSON messages (see
  :mod:`repro.core.serialization.messages`) — the original, human-readable
  wire that a five-line script can speak;
* the binary frame protocol of :mod:`repro.wire` — a magic byte, a frame
  type, a varint length, and a payload that carries a small JSON envelope
  plus raw (not base64) cipher/key blobs.

The framing of each message is sniffed from its first byte (``0xEB`` can
never begin a JSON line), and replies always use the framing of the request
they answer — so legacy JSON clients keep working unchanged against a
binary-capable listener, and one router can serve both kinds concurrently.
Nothing is negotiated: a client picks its framing and its first byte is
its first message's.  The JSON ``hello`` line an earlier build's client
opens with is still answered (see :mod:`repro.wire.protocol`);
multi-megabyte evaluation-key sets stream as bounded CHUNK frames instead of
one monolithic message.

Sockets live elsewhere.  The listener is :class:`~.aionet.AsyncWireServer`
(one event loop, an affinity pool for blocking work); this module supplies
the *sans-IO connection objects* it drives — one decoded message in, reply
bytes and a keep-open flag out — so everything protocol-shaped (an earlier
client's hello, chunked uploads, dispatch, byte accounting, error replies)
can be exercised without a network.  Each connection may pipeline any
number of requests; responses come back in order.

Nothing here is written once per framing.  :meth:`_WireConnection.handle` is
the connection's one state machine, and it, the router's passthrough and
:class:`ServingClient` all reach a message through the codec pair of
:mod:`repro.wire.framing` (``JSON`` and ``BINARY``: peek the envelope, decode,
rewrite an envelope field, encode a reply), chosen by what the frame decoder
sniffed.

Two servers share the wire formats:

* :class:`EvaTcpServer` wraps one in-process
  :class:`~repro.serving.server.EvaServer` (the single-process mode).
* :class:`ClusterTcpServer` is the *router* of an
  :class:`~repro.serving.cluster.EvaCluster`: it owns the public listener and
  forwards each request to the shard its ``client_id`` consistent-hashes to,
  relaying the reply verbatim — binary frames are forwarded without
  re-encoding their blob bytes (the router reads only the envelope).
  Clients cannot tell the difference — :class:`ServingClient` works against
  both.
"""

from __future__ import annotations

import socket
import time
from functools import partial
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.serialization import messages
from ..errors import (
    DeadlineInfeasibleError,
    EvaError,
    QuotaExceededError,
    ServingError,
    TransportError,
)
from ..wire import (
    BINARY,
    FRAME_CHUNK,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    FRAMINGS,
    JSON,
    MAX_TRACKED_UPLOADS,
    STREAM_THRESHOLD_BYTES,
    UPLOAD_KEY,
    WIRE_MODES,
    FrameDecoder,
    Framing,
    Parts,
    UploadState,
    decode_message,
    hello_ack,
    iter_chunks,
    open_message,
    read_message,
)
from .aionet import AsyncWireServer
from .quotas import QuotaLedger
from .server import EvaServer
from .telemetry import Telemetry, merge_traces, new_trace_id, render_prometheus

#: What a connection object hands back for one message: the reply as wire
#: bytes (empty when the message is not answered) and whether to keep the
#: connection open.
_Reply = Tuple[bytes, bool]


#: One endpoint's answer to one op: ``(connection, validated request, framing)``
#: -> the value that goes under the op's reply key.
_Answer = Callable[["_WireConnection", Dict[str, Any], Framing], Any]


class _WireConnection:
    """Sans-IO protocol state of one connection, shared by shard and router.

    :meth:`handle` is the whole protocol: every message the connection's
    :class:`~repro.wire.FrameDecoder` produces yields exactly one reply in
    the message's own framing, or nothing (a blank line, an absorbed CHUNK),
    or a close.  A request that fails is answered with a typed error reply —
    the stream is still synchronized at the next message boundary — while an
    undecodable line or a malformed chunk, which nothing can answer, closes
    the connection.  :meth:`answer` is the one dispatch step, driven by the op
    table of :mod:`~repro.core.serialization.messages`; subclasses supply what
    their kind of endpoint answers each op with (:attr:`answers`), which
    requests reach that step (:meth:`respond`) and where a chunk goes
    (:meth:`absorb_chunk`).
    """

    #: Whether :meth:`close` has upstream state to release.
    needs_close = False
    #: op -> this endpoint's answer (a column of :data:`_ANSWERS`).
    answers: Dict[str, _Answer] = {}
    #: The error for an op :attr:`answers` lacks (formatted with ``op``).
    refusal = "{op}"

    def __init__(self, server: Any, key: int, peer: str) -> None:
        self.server = server
        self.key = key
        self.peer = peer
        self.opened_at = time.time()
        #: The connection's reported framing: ``json`` until a binary frame arrives.
        self.protocol = JSON.name
        self.bytes_sent = 0
        self.bytes_received = 0
        self.requests = 0

    def info(self) -> Dict[str, Any]:
        """Wire-friendly connection descriptor for ``cluster stats``."""
        return {
            "peer": self.peer,
            "protocol": self.protocol,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "requests": self.requests,
            "opened_at": round(self.opened_at, 3),
        }

    def close(self) -> None:
        """Release upstream state once the peer is gone (see ``needs_close``)."""

    def respond(self, framing: Framing, raw: Any, envelope: Dict[str, Any]) -> Parts:
        """Answer one request; returns the reply's parts in ``framing``."""
        raise NotImplementedError

    def answer(self, framing: Framing, message: Dict[str, Any]) -> Parts:
        """The one dispatch step: look the op's row up and validate the request
        against it, call this endpoint's answer for the op, wrap the answer
        under the row's reply key."""
        request = messages.validate_request(message)
        row = messages.OPS[request["op"]]
        answer = self.answers.get(row.name)
        if answer is None:
            raise ServingError(self.refusal.format(op=row.name))
        reply = answer(self, request, framing)
        if row.reply is not None:
            reply = messages.build_response(payload={row.reply: reply})
            if "format" in row.fields and request.get("format") == "prometheus":
                reply["prometheus"] = render_prometheus(reply[row.reply])
        return framing.parts(reply)

    def absorb_chunk(self, payload: bytes) -> None:
        """Take one CHUNK frame of a streaming upload (never answered).

        A :class:`~repro.errors.TransportError` closes the connection;
        anything milder is reported on the request that references the upload.
        """
        raise NotImplementedError

    def handle(self, message: tuple) -> _Reply:
        """The connection state machine: one decoded message in, its reply out."""
        try:
            framing, frame_type, raw, nbytes = open_message(message)
        except UnicodeDecodeError:
            return b"", False  # not JSON, not a frame: drop the connection
        if framing is BINARY:
            self.protocol = BINARY.name
        self.bytes_received += nbytes
        self.server.telemetry.inc("net.bytes_received", nbytes, protocol=framing.name)
        if not raw and framing is JSON:
            return b"", True  # a blank line between requests
        if frame_type == FRAME_CHUNK:
            try:
                self.absorb_chunk(raw)
            except TransportError:
                return b"", False  # unanswerable, and the stream may be hostile
            return b"", True
        # Captured as soon as the envelope parses, so even an error reply
        # echoes the trace id the request carried (quota rejections included
        # — the client can still look the trace up).
        trace_id: Optional[str] = None
        # Raw-blob mode (binary) for the whole dispatch: everything packed on
        # the way out skips base64 and is lifted into blob records by the
        # encoder — which must run inside the context, while the blob views
        # are alive, and returns one owned ``bytes``.
        with framing.blob_context():
            try:
                if frame_type == FRAME_RESPONSE:
                    raise TransportError("clients send request frames, got a response frame")
                envelope = framing.peek(raw)
                if envelope.get("op") == "hello":  # what an earlier build's client opens with
                    parts = framing.parts(hello_ack(envelope))
                else:
                    trace_id = messages.request_trace_id(envelope)
                    self.requests += 1
                    parts = self.respond(framing, raw, envelope)
            except Exception as error:
                # A minted trace id rides the exception (see the router).
                trace_id = getattr(error, "trace_id", None) or trace_id
                if not isinstance(error, EvaError):  # never let a request kill the connection
                    error = ServingError(str(error))
                parts = framing.parts(messages.build_error(error, trace_id=trace_id))
            data = framing.encode(FRAME_RESPONSE, parts)
        self.bytes_sent += len(data)
        self.server.telemetry.inc("net.bytes_sent", len(data), protocol=framing.name)
        return data, True


class _ShardConnection(_WireConnection):
    """One shard/single-server connection: requests in, responses out."""

    server: "EvaTcpServer"
    refusal = "{op} is a cluster operation; this is a single-process server"

    def __init__(self, server: Any, key: int, peer: str) -> None:
        super().__init__(server, key, peer)
        self.eva: EvaServer = server.eva_server
        self.uploads = UploadState()

    def info(self) -> Dict[str, Any]:
        """The shared descriptor plus this connection's assembling uploads."""
        return dict(super().info(), open_uploads=len(self.uploads))

    def absorb_chunk(self, payload: bytes) -> None:
        """Buffer one slice of a streaming upload; a malformed chunk poisons
        the upload and is reported on the request that references it."""
        envelope, blobs = decode_message(payload)
        self.uploads.add_chunk(envelope, blobs[0] if blobs else b"")

    def respond(self, framing: Framing, raw: Any, envelope: Dict[str, Any]) -> Parts:
        """Decode the whole message (claiming a referenced upload) and answer it."""
        return self.answer(framing, framing.decode(raw, envelope, self.uploads))

    def _finish(self, request: Dict[str, Any], started: float) -> None:
        """Close a session/submit out: total-latency metrics and the slow log."""
        self.eva.telemetry.finish(
            request.get("trace_id"),
            time.perf_counter() - started,
            op=request["op"],
            client=request["client_id"],
            program=request["program"],
        )

    def create_session(self, request: Dict[str, Any], framing: Framing) -> Dict[str, Any]:
        """Import the client's evaluation keys as its session for the program."""
        started = time.perf_counter()
        session = self.eva.create_session(
            request["program"], request["client_id"], request["evaluation_keys"]
        )
        self._finish(request, started)
        return session

    def submit(self, request: Dict[str, Any], framing: Framing) -> Dict[str, Any]:
        """Evaluate plaintext inputs or a cipher bundle; the whole reply."""
        eva = self.eva
        started = time.perf_counter()
        trace_id = request.get("trace_id")
        routing = {
            "client_id": request["client_id"],
            "trace_id": trace_id,
            "deadline_ms": request.get("deadline_ms"),
            "slo_class": request.get("slo_class"),
            "caller": self.key,
        }
        if "bundle" in request:
            response = eva.request_encrypted(request["program"], request["bundle"], **routing)
            # Encode the ciphertext reply with the session context the worker
            # evaluated under (carried on the response, so an eviction between
            # evaluation and encoding cannot fail a completed request); the
            # server never decrypts — only the submitting client can.
            encode_started = time.perf_counter()
            reply = messages.build_response(
                stats=response.stats_dict(),
                payload={"encrypted_outputs": response.to_wire()},
            )
            # The transport owns the output handles once encoded.
            response.release()
        else:
            response = eva.request(
                request["program"],
                request["inputs"],
                output_size=request.get("output_size"),
                **routing,
            )
            encode_started = time.perf_counter()
            reply = messages.build_response(
                outputs=response.outputs,
                stats=response.stats_dict(),
                pack_outputs=framing.packed,
            )
        eva.telemetry.span(trace_id, "serialize_reply", time.perf_counter() - encode_started)
        self._finish(request, started)
        if trace_id and request.get("trace"):
            trace = eva.telemetry.trace_of(trace_id)
            if trace is not None:
                reply["trace"] = trace
        return reply


class EvaTcpServer(AsyncWireServer):
    """TCP front door of one :class:`~repro.serving.server.EvaServer`."""

    connection_class = _ShardConnection
    thread_name = "eva-tcp-server"

    def __init__(self, eva_server: EvaServer, host: str = "127.0.0.1", port: int = 0) -> None:
        self.eva_server = eva_server
        #: Where connections count their bytes: the engine's own registry.
        self.telemetry = eva_server.telemetry
        super().__init__(host, port)

    def _connections_changed(self) -> None:
        """Tell the engine which connections are live (a batch holding a
        request from each stops lingering)."""
        self.eva_server.engine.set_callers(self._connections)


class _RouterConnection(_WireConnection):
    """One router connection: route each request to its client's shard.

    Forwarding goes through the cluster's own request plumbing
    (:meth:`EvaCluster._call`), which keeps one upstream connection per
    (worker thread, shard) — so pipelined requests keep their ordering per
    shard and the router adds no per-request connect cost — and already
    implements failover: a dead shard leaves the ring and the request retries
    on the client's new home shard, safe because serving requests are pure
    evaluations.

    Binary requests are forwarded as *passthrough*: the router decodes only
    the envelope (op, client, trace id) and relays the blob bytes untouched —
    splicing a minted ``trace_id`` re-encodes the tiny envelope field, never
    the megabytes of ciphertext behind it.  CHUNK frames of a streaming
    upload are relayed to the client's shard without any reply.

    An upstream connection is shared by every client connection on the same
    worker, while clients number their uploads per connection (``up-1``,
    ``up-2``, …), so relayed upload ids are prefixed with this connection's
    key, and the uploads still open when the client goes away are discarded
    on the shard (:meth:`close`).
    """

    server: "ClusterTcpServer"
    refusal = "the router does not answer {op!r} requests"

    def __init__(self, server: Any, key: int, peer: str) -> None:
        super().__init__(server, key, peer)
        self.cluster = server.cluster
        #: The cluster-wide views fold the router's own telemetry plane in.
        self.planes = (server.telemetry,)
        #: Relayed upload id -> the client id its chunks were routed by.
        self._open_uploads: Dict[str, str] = {}

    @property
    def needs_close(self) -> bool:
        """True while the shard holds chunks no request has claimed."""
        return bool(self._open_uploads)

    def close(self) -> None:
        """Tell the shard to drop the uploads this client left unfinished."""
        for upload_id, client_id in self._open_uploads.items():
            discard = BINARY.parts(
                {"upload": upload_id, "discard": True, "client_id": client_id}
            )
            try:
                self.cluster._call(
                    client_id, lambda upstream: upstream.send(BINARY, FRAME_CHUNK, discard)
                )
            except Exception:
                pass  # the shard is gone, and its upload buffers with it
        self._open_uploads.clear()

    def _relayed_upload(self, upload_id: Any) -> str:
        return f"{self.key}/{upload_id}"


    def absorb_chunk(self, payload: bytes) -> None:
        """Relay one upload chunk to the client's shard under this connection's
        upload namespace; routing failures surface on the final request that
        references the upload."""
        envelope = BINARY.peek(payload)
        client_id = str(envelope.get("client_id", "default"))
        upload_id = self._relayed_upload(envelope.get("upload"))
        if (
            upload_id not in self._open_uploads
            and len(self._open_uploads) >= MAX_TRACKED_UPLOADS
        ):
            raise TransportError(
                f"connection has {MAX_TRACKED_UPLOADS} unclaimed uploads"
            )
        self._open_uploads[upload_id] = client_id
        chunk = BINARY.rewrite(payload, envelope, {"upload": upload_id})
        try:
            self.cluster._call(
                client_id, lambda upstream: upstream.send(BINARY, FRAME_CHUNK, chunk)
            )
        except Exception:
            pass  # the referencing request reports the failed upload

    def respond(self, framing: Framing, raw: Any, envelope: Dict[str, Any]) -> Parts:
        """Answer locally, or forward to the client's shard and relay its reply.

        Of a forwarded op (``submit``/``session``) only the envelope is read
        here — the payload may be megabytes of ciphertext, which the shard
        validates.  An envelope rewrite (a trace id minted for an untraced
        client, a relayed upload id) re-encodes that small field; the blobs
        are relayed as one slice of the original message.
        """
        op = envelope.get("op")
        if not messages.request_row(op).forwarded:
            return self.answer(framing, envelope)  # no blobs behind these envelopes
        client_id = str(envelope.get("client_id", "default"))
        trace_id = envelope.get("trace_id")
        fields: Dict[str, Any] = {}
        if trace_id is None:
            trace_id = fields["trace_id"] = new_trace_id()
        upload_id = envelope.get(UPLOAD_KEY)
        if upload_id is not None:
            upload_id = fields[UPLOAD_KEY] = self._relayed_upload(upload_id)
        parts = framing.rewrite(raw, envelope, fields) if fields else (raw,)
        try:
            reply = self._admitted_forward(
                op,
                client_id,
                trace_id,
                envelope.get("program"),
                lambda: self.cluster._call(
                    client_id, lambda upstream: upstream.roundtrip(framing, parts)
                ),
            )
        except Exception as error:
            # handle() saw only the id the request carried; a minted one rides
            # the exception, so a throttled or failed-over client still gets a
            # correlatable reply.
            error.trace_id = trace_id
            raise
        # The shard answered, so it has claimed (or rejected) the upload.
        self._open_uploads.pop(upload_id, None)
        if envelope.get("trace"):
            return self._merge_trace(framing, reply, trace_id)
        return (reply,)

    def _admitted_forward(
        self,
        op: str,
        client_id: str,
        trace_id: Optional[str],
        program: Any,
        forward: Callable[[], Any],
    ) -> Any:
        """Quota admission + telemetry around one forwarded submit/session.

        Both pass per-client admission first — sessions are the
        *heaviest* op (key import + persistence), so exempting them would
        leave the biggest hole — and the router is the cheap place to say
        429, before the request ever costs a shard anything.
        """
        telemetry = self.server.telemetry
        ledger = self.server.ledger
        started = time.perf_counter()
        if ledger.enabled:
            try:
                ledger.admit(client_id)  # raises QuotaExceededError
            except EvaError:
                telemetry.inc("serving.router.throttled", client=client_id)
                raise
            telemetry.span(
                trace_id,
                "quota_admission",
                time.perf_counter() - started,
                client=client_id,
            )
        forward_started = time.perf_counter()
        try:
            reply = forward()
        finally:
            ledger.release(client_id)  # a no-op without an in-flight quota
        telemetry.span(
            trace_id,
            "router_forward",
            time.perf_counter() - forward_started,
            client=client_id,
            op=op,
        )
        telemetry.inc("serving.router.forwarded", client=client_id, op=op)
        telemetry.finish(
            trace_id,
            time.perf_counter() - started,
            op=op,
            client=client_id,
            program=program,
        )
        return reply

    def _merge_trace(self, framing: Framing, reply: Any, trace_id: str) -> Parts:
        """Fold the router's spans into the trace object a shard echoed.

        Only runs for requests that asked for an echo (``"trace": true``), so
        the cost is opt-in — and even then only the reply's envelope field is
        rewritten; untraced ciphertext replies are relayed verbatim.
        """
        router_view = self.server.telemetry.trace_of(trace_id)
        if router_view is None:
            return (reply,)
        try:
            envelope = framing.peek(reply)
        except EvaError:
            return (reply,)
        merged = merge_traces([envelope.get("trace"), router_view])
        if merged is None:
            return (reply,)
        return framing.rewrite(reply, envelope, {"trace": merged})


def _front_door_stats(listener: Any) -> Dict[str, Any]:
    """What a listener adds to the ``stats`` answer: its live connections and
    its live dispatch workers (the ``serving.dispatch.threads`` gauge)."""
    threads = listener.telemetry.registry.gauge_value("serving.dispatch.threads")
    return {"connections": listener.connection_infos(), "dispatch": {"threads": int(threads)}}


#: What each kind of endpoint answers an op with: ``op -> (a single-process
#: server or shard, a cluster router)``, ``None`` where that endpoint refuses
#: the op.  The router has no answer for the ops it forwards to a shard
#: (``messages.OPS[op].forwarded``).  Fields, reply keys and who-answers are in
#: the rows of ``messages.OPS``; ``tests/test_wire.py`` holds the two together.
_ANSWERS: Dict[str, Tuple[Optional[_Answer], Optional[_Answer]]] = {
    "submit": (_ShardConnection.submit, None),
    "session": (_ShardConnection.create_session, None),
    "ping": (lambda conn, request, framing: True,) * 2,
    "list": (
        lambda conn, request, framing: conn.eva.programs(),
        lambda conn, request, framing: conn.cluster.programs(),
    ),
    "stats": (
        lambda conn, request, framing: dict(conn.eva.stats(), **_front_door_stats(conn.server)),
        lambda conn, request, framing: dict(conn.cluster.stats(), **_front_door_stats(conn.server)),
    ),
    "metrics": (
        lambda conn, request, framing: conn.eva.metrics_snapshot(),
        lambda conn, request, framing: conn.cluster.metrics_snapshot(conn.planes),
    ),
    "trace": (
        lambda conn, request, framing: conn.eva.telemetry.trace_of(request["trace_id"]),
        lambda conn, request, framing: conn.cluster.trace_of(request["trace_id"], conn.planes),
    ),
    "slow": (
        lambda conn, request, framing: conn.eva.telemetry.slow(request.get("limit")),
        lambda conn, request, framing: conn.cluster.slow_requests(
            request.get("limit"), conn.planes
        ),
    ),
    "health": (
        lambda conn, request, framing: [
            {"index": 0, "status": "live", "alive": True, "mode": "single-process"}
        ],
        lambda conn, request, framing: conn.cluster.check_health(),
    ),
    "route": (
        None,
        lambda conn, request, framing: conn.cluster.describe_route(request["client_id"]),
    ),
    "drain": (None, lambda conn, request, framing: conn.cluster.drain_shard(request["shard"])),
    "rejoin": (None, lambda conn, request, framing: conn.cluster.rejoin_shard(request["shard"])),
}
_ShardConnection.answers = {op: shard for op, (shard, _) in _ANSWERS.items() if shard}
_RouterConnection.answers = {op: router for op, (_, router) in _ANSWERS.items() if router}


class ClusterTcpServer(AsyncWireServer):
    """Router front door of an :class:`~repro.serving.cluster.EvaCluster`.

    Owns the public listener; every request is forwarded to the shard its
    client consistent-hashes to.  The wire protocols are identical to
    :class:`EvaTcpServer`'s — JSON lines and binary frames on one socket —
    plus the cluster admin ops:
    ``route`` (which shard/pid a client maps to), ``health`` (per-shard
    liveness), ``drain`` and ``rejoin`` (shard lifecycle) — useful for chaos
    drills, rolling restarts, and smoke tests.

    When the cluster's recipe carries a
    :class:`~repro.serving.quotas.FairnessPolicy`, the router enforces
    per-client rate and in-flight quotas *before* forwarding: a throttled
    client gets a ``QuotaExceededError`` reply with ``retry_after`` and its
    request never costs a shard anything.
    """

    connection_class = _RouterConnection
    thread_name = "eva-cluster-router"

    def __init__(self, cluster: Any, host: str = "127.0.0.1", port: int = 0) -> None:
        self.cluster = cluster
        self.ledger = QuotaLedger(cluster.recipe.fairness)
        #: The router's own telemetry plane: forward/admission spans, router
        #: counters, and router-side slow-request detection (end-to-end
        #: latency as the client experienced it, including the shard hop).
        threshold = cluster.recipe.slow_threshold
        self.telemetry = Telemetry(slow_threshold=threshold, shard="router")
        super().__init__(host, port)


#: Error kinds a reply carries a ``retry_after`` hint for.
_RETRY_AFTER_ERRORS = {
    error.__name__: error for error in (QuotaExceededError, DeadlineInfeasibleError)
}


class ClientApi:
    """The client API, written once over ``call(op, **fields)``.

    :class:`ServingClient` (one connection) and
    :class:`~repro.serving.cluster.EvaCluster` (a failover loop over shard
    connections) inherit these helpers and differ only in :meth:`call`.
    Evaluation keys and cipher bundles are handed to ``call`` as
    zero-argument callables: the connection that sends them encodes them in
    its own packing, once per attempt, while encryption runs once here.
    """

    def call(self, op: str, **fields: Any) -> Any:
        """One request of any op in the table; returns the answer."""
        raise NotImplementedError

    def submit(
        self,
        program: str,
        inputs: Dict[str, Any],
        client_id: str = "default",
        output_size: Optional[int] = None,
        trace: bool = False,
        trace_id: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        slo_class: Optional[str] = None,
    ) -> Dict[str, np.ndarray]:
        """Execute ``program`` on the server; returns decrypted outputs.

        With ``trace=True`` the client mints a trace id (unless the caller
        supplies one — e.g. a retry loop keeping one id across attempts), the
        server records a span per stage, and the reply echoes them —
        available afterwards as ``self.last_trace`` (``submit --trace``
        prints this breakdown).

        ``deadline_ms``/``slo_class`` attach SLO semantics; an infeasible
        deadline is rejected with a typed
        :class:`~repro.errors.DeadlineInfeasibleError` carrying
        ``retry_after``.
        """
        return self._submit(
            trace,
            trace_id,
            program=program,
            inputs=inputs,
            client_id=client_id,
            output_size=output_size,
            deadline_ms=deadline_ms,
            slo_class=slo_class,
        ).get("outputs", {})

    def _submit(self, trace: bool, trace_id: Optional[str], **fields: Any) -> Dict[str, Any]:
        """One submit op; keeps the reply's stats and trace echo for the caller.

        The trace id is minted here, before :meth:`call`, so a cluster that
        fails the request over sends every attempt under the same id.
        """
        if trace and trace_id is None:
            trace_id = new_trace_id()
        response = self.call("submit", trace=trace, trace_id=trace_id, **fields)
        self.last_stats: Dict[str, Any] = response.get("stats", {})
        self.last_trace: Optional[Dict[str, Any]] = response.get("trace")
        return response

    def create_session(self, program: str, client_kit: Any, client_id: Optional[str] = None) -> Dict[str, Any]:
        """Register ``client_kit``'s evaluation keys for ``program`` on the server.

        ``client_kit`` is a :class:`repro.api.ClientKit` (anything exposing
        ``export_evaluation_keys()``); the secret key never leaves the client.
        The connection that sends the keys exports them: raw (no base64) and
        streamed as chunked frames past the streaming threshold on a binary
        connection.
        """
        return self.call(
            "session",
            program=program,
            client_id=client_id or getattr(client_kit, "client_id", "default"),
            evaluation_keys=client_kit.export_evaluation_keys,
        )

    def submit_bundle(
        self,
        program: str,
        bundle_wire: Any,
        client_id: str = "default",
        trace: bool = False,
        trace_id: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        slo_class: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit a wire-encoded cipher bundle (or a zero-argument callable
        encoding one); returns wire-encoded ciphertext outputs."""
        return self._submit(
            trace,
            trace_id,
            program=program,
            bundle=bundle_wire,
            client_id=client_id,
            deadline_ms=deadline_ms,
            slo_class=slo_class,
        ).get("encrypted_outputs", {})

    def submit_encrypted(
        self,
        program: str,
        client_kit: Any,
        inputs: Dict[str, Any],
        client_id: Optional[str] = None,
        trace: bool = False,
        deadline_ms: Optional[float] = None,
        slo_class: Optional[str] = None,
    ) -> Dict[str, np.ndarray]:
        """End-to-end encrypted request: encrypt, submit, decrypt — keys stay local.

        The kit encrypts ``inputs`` into a bundle, the server evaluates it
        blindly under the session created with :meth:`create_session`, and the
        ciphertext reply is decrypted here with the kit's secret key.
        ``client_id`` must match the one the session was created under
        (defaults to the kit's own id, as :meth:`create_session` does).
        ``deadline_ms``/``slo_class`` ride the envelope exactly as on
        :meth:`submit` — SLO admission sees encrypted and plaintext requests
        identically.
        """
        bundle = client_kit.encrypt_inputs(inputs)
        reply = self.submit_bundle(
            program,
            partial(client_kit.bundle_to_wire, bundle),
            client_id=client_id or getattr(client_kit, "client_id", "default"),
            trace=trace,
            deadline_ms=deadline_ms,
            slo_class=slo_class,
        )
        return client_kit.decrypt_outputs(client_kit.outputs_from_wire(reply))

    def programs(self) -> list:
        """Registered program names on the server."""
        return self.call("list")


class ServingClient(ClientApi):
    """Dual-protocol client for :class:`EvaTcpServer` (and the router).

    ``wire`` is the framing, ``self.protocol``: ``binary`` (default) frames or
    ``json`` lines.  Nothing is negotiated — every listener sniffs the framing
    of each message — so the first thing written is the first request.  Both
    framings carry the same records (seeds and bit-packed residues), only
    blobs travel differently.  ``bytes_sent``/``bytes_received`` count the
    traffic on this connection.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 30.0,
        wire: str = "binary",
    ) -> None:
        if wire not in WIRE_MODES:
            raise ServingError(
                f"unknown wire mode {wire!r}; expected one of {WIRE_MODES}"
            )
        self.protocol = wire
        self.bytes_sent = 0
        self.bytes_received = 0
        self._upload_seq = 0
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # A request's final partial segment must never wait on a delayed ACK.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        #: Frames are written piecewise (header, envelope, blob slices);
        #: buffer the write side so one request leaves as coalesced segments.
        self._file = self._sock.makefile("wb")
        self._decoder = FrameDecoder()

    # -- transport ----------------------------------------------------------------
    def send(self, framing: Framing, frame_type: int, parts: Parts) -> None:
        """Write one message in ``framing`` without waiting for a reply.

        Transport failures raise :class:`~repro.errors.TransportError` so
        routing layers can distinguish "the connection died" (fail over) from
        an application-level error reply (do not).
        """
        try:
            written = framing.write(self._file, frame_type, parts)
            self._file.flush()
        except OSError as exc:
            raise TransportError(f"connection to server lost: {exc}") from exc
        self.bytes_sent += written

    def roundtrip(self, framing: Framing, parts: Parts) -> Any:
        """Send one pre-encoded request, return the raw reply in its framing.

        The router's passthrough path: the caller relays the returned line or
        payload verbatim, without decoding the blobs in it.
        """
        self.send(framing, FRAME_REQUEST, parts)
        try:
            message = read_message(self._decoder, self._sock.recv)
        except OSError as exc:
            raise TransportError(f"connection to server lost: {exc}") from exc
        answered, frame_type, raw, nbytes = open_message(message)
        self.bytes_received += nbytes
        if answered is not framing or frame_type not in (None, FRAME_RESPONSE):
            raise TransportError(
                f"expected a {framing.name} response, got a {answered.name} "
                f"message (frame type {frame_type})"
            )
        return raw

    # -- request plumbing ---------------------------------------------------------
    def _stream_upload(self, blobs: Sequence[Any], client_id: str) -> str:
        """Stream ``blobs`` as bounded CHUNK frames; returns the upload id.

        A multi-MB key set never head-of-line-blocks the connection behind
        one giant frame; the request frame that follows references the upload.
        """
        self._upload_seq += 1
        upload_id = f"up-{self._upload_seq}"
        for index, blob in enumerate(blobs):
            views = list(iter_chunks(blob))
            for position, view in enumerate(views):
                chunk_envelope = {
                    "upload": upload_id,
                    "blob": index,
                    "eof": position == len(views) - 1,
                    "client_id": client_id,
                }
                self.send(BINARY, FRAME_CHUNK, BINARY.join(chunk_envelope, [view]))
        return upload_id

    def _roundtrip_op(self, op: str, **fields: Any) -> Dict[str, Any]:
        framing = FRAMINGS[self.protocol]
        with framing.blob_context():
            # A callable field (a kit's keys or bundle) is encoded here, for
            # this connection.
            fields = {key: value() if callable(value) else value for key, value in fields.items()}
            message = messages.build_request(op, pack_inputs=framing.packed, **fields)
        envelope, blobs = framing.split(message)
        if sum(len(blob) for blob in blobs) > STREAM_THRESHOLD_BYTES:
            envelope[UPLOAD_KEY] = self._stream_upload(
                blobs, str(message.get("client_id", "default"))
            )
            blobs = ()
        raw = self.roundtrip(framing, framing.join(envelope, blobs))
        response = messages.finish_response(framing.decode(raw, framing.peek(raw)))
        if response.get("ok"):
            return response
        kind = response.get("kind", "ServingError")
        typed = _RETRY_AFTER_ERRORS.get(kind)
        if typed is None:
            raise ServingError(f"{kind}: {response.get('error')}")
        # The serving layer's 429 (quota) and SLO-admission rejections are
        # re-raised typed, with the server's retry-after hint, so callers can
        # back off or re-plan instead of just failing.  The echoed trace id
        # rides along so a rejected request stays correlatable.
        error = typed(
            str(response.get("error")),
            retry_after=float(response.get("retry_after", 0.0) or 0.0),
        )
        error.trace_id = response.get("trace_id")
        raise error

    # -- client API ---------------------------------------------------------------
    def call(self, op: str, **fields: Any) -> Any:
        """One request of any op in the table; returns the answer.

        ``fields`` are the op's fields (``messages.OPS[op]``); the answer is
        what the reply carries under the row's reply key (the whole reply for
        a ``submit``).  An error reply raises, as for every named helper.
        """
        response = self._roundtrip_op(op, **fields)
        key = messages.OPS[op].reply
        return response if key is None else response.get(key)

    def route(self, client_id: str = "default") -> Dict[str, Any]:
        """Which shard serves ``client_id`` (cluster servers only)."""
        return self.call("route", client_id=client_id)

    def health(self) -> list:
        """Per-shard health report (single servers report one live shard)."""
        return self.call("health")

    def drain(self, shard: int) -> Dict[str, Any]:
        """Take ``shard`` out of the ring without stopping it (cluster only)."""
        return self.call("drain", shard=shard)

    def rejoin(self, shard: int) -> Dict[str, Any]:
        """Return ``shard`` to the ring, respawning it if dead (cluster only)."""
        return self.call("rejoin", shard=shard)

    def stats(self) -> Dict[str, Any]:
        """The server's stats() snapshot."""
        return self.call("stats")

    def metrics(self, prometheus: bool = False) -> Dict[str, Any]:
        """The server's unified metrics snapshot (cluster-aggregated on routers).

        With ``prometheus=True`` the reply additionally carries the rendered
        text exposition under ``"prometheus"``.
        """
        response = self._roundtrip_op("metrics", format="prometheus" if prometheus else None)
        return {key: response[key] for key in ("metrics", "prometheus") if key in response}

    def trace_of(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """The recorded per-stage spans of one trace id (None when unknown)."""
        return self.call("trace", trace_id=trace_id)

    def slow(self, limit: Optional[int] = None) -> list:
        """Recent slow requests, newest first (cluster-merged on routers)."""
        return self.call("slow", limit=limit)

    def ping(self) -> bool:
        """Liveness probe; True when the server answers."""
        return bool(self.call("ping"))

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __del__(self) -> None:  # release the socket when a cached client dies
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
