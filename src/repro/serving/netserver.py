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
Binary framing is negotiated by a JSON ``hello`` exchange (see
:mod:`repro.wire.protocol`); multi-megabyte evaluation-key sets stream as
bounded CHUNK frames instead of one monolithic message.

Sockets live elsewhere.  The listener is :class:`~.aionet.AsyncWireServer`
(one event loop, an affinity pool for blocking work); this module supplies
the *sans-IO connection objects* it drives — one decoded message in, reply
bytes and a keep-open flag out — so everything protocol-shaped (hello,
chunked uploads, dispatch, byte accounting, error replies) can be exercised
without a network.  Each connection may pipeline any number of requests;
responses come back in order.

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

import json
import socket
import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.serialization import messages
from ..core.serialization.packing import raw_blobs
from ..errors import (
    DeadlineInfeasibleError,
    EvaError,
    QuotaExceededError,
    SerializationError,
    ServingError,
    TransportError,
)
from ..wire import (
    FRAME_CHUNK,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    STREAM_THRESHOLD_BYTES,
    UPLOAD_KEY,
    WIRE_MODES,
    FrameDecoder,
    UploadState,
    build_hello,
    decode_message,
    encode_blob_record,
    encode_envelope,
    encode_frame,
    encode_message,
    hello_ack,
    iter_chunks,
    parse_hello_reply,
    peek_envelope,
    read_message,
    rehydrate,
    replace_envelope,
    split_message,
    write_frame,
)
from .aionet import AsyncWireServer
from .quotas import FairnessPolicy, QuotaLedger
from .server import EvaServer
from .telemetry import (
    Telemetry,
    aggregate_snapshots,
    merge_traces,
    new_trace_id,
    render_prometheus,
)

_Bytes = Union[bytes, bytearray, memoryview]

#: What a connection object hands back for one message: the reply as wire
#: bytes (empty when the message is not answered) and whether to keep the
#: connection open.
_Reply = Tuple[bytes, bool]


class _WireConnection:
    """Sans-IO protocol state of one connection, shared by shard and router.

    :meth:`handle` takes one message from the connection's
    :class:`~repro.wire.FrameDecoder` and returns the reply bytes — already
    in the framing of the request — plus a keep-open flag.  Frame-*payload*
    errors are answered with an error reply (the stream is still
    synchronized at the next frame boundary); an undecodable line or a
    malformed chunk closes the connection.
    """

    #: Whether :meth:`close` has upstream state to release.
    needs_close = False

    def __init__(self, server: Any, key: int, peer: str) -> None:
        self.server = server
        self.key = key
        self.peer = peer
        self.opened_at = time.time()
        #: The connection's current framing: ``json`` until a binary frame
        #: arrives or a hello negotiates binary.
        self.protocol = "json"
        self.negotiated = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self.requests = 0

    def info(self) -> Dict[str, Any]:
        """Wire-friendly connection descriptor for ``cluster stats``."""
        return {
            "peer": self.peer,
            "protocol": self.protocol,
            "negotiated": self.negotiated,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "requests": self.requests,
            "opened_at": round(self.opened_at, 3),
        }

    def close(self) -> None:
        """Release upstream state once the peer is gone (see ``needs_close``)."""

    def _telemetry(self) -> Telemetry:
        raise NotImplementedError

    def handle_json(self, text: str) -> _Reply:
        """Answer one JSON-lines request."""
        raise NotImplementedError

    def handle_frame(self, frame_type: int, payload: bytes) -> _Reply:
        """Answer (or absorb) one binary frame."""
        raise NotImplementedError

    def handle(self, message: tuple) -> _Reply:
        """Account for one decoded message and answer it in its own framing."""
        if message[0] == "frame":
            _kind, frame_type, payload, nbytes = message
            self.protocol = "binary"
            self._count_received(nbytes, "binary")
            return self.handle_frame(frame_type, payload)
        line = message[1]
        self._count_received(len(line), "json")
        try:
            text = line.decode("utf-8").strip()
        except UnicodeDecodeError:
            return b"", False  # not JSON, not a frame: drop the connection
        if not text:
            return b"", True
        return self.handle_json(text)

    # -- byte accounting and reply encoding ----------------------------------------
    def _count_received(self, nbytes: int, protocol: str) -> None:
        self.bytes_received += nbytes
        self._telemetry().inc("net.bytes_received", nbytes, protocol=protocol)

    def _count_sent(self, nbytes: int, protocol: str) -> None:
        self.bytes_sent += nbytes
        self._telemetry().inc("net.bytes_sent", nbytes, protocol=protocol)

    def _json_reply(self, reply: Union[str, Dict[str, Any]]) -> _Reply:
        """One reply line from a message dict (or a shard's raw reply text)."""
        if not isinstance(reply, str):
            reply = json.dumps(reply, separators=(",", ":"))
        if not reply.endswith("\n"):
            reply += "\n"
        data = reply.encode("utf-8")
        self._count_sent(len(data), "json")
        return data, True

    def _frame_reply(self, *parts: _Bytes) -> _Reply:
        """One response frame; copies each part once, while its buffer lives."""
        data = encode_frame(FRAME_RESPONSE, *parts)
        self._count_sent(len(data), "binary")
        return data, True

    def _error_reply(
        self, error: Exception, trace_id: Optional[str], binary: bool
    ) -> _Reply:
        """The typed error reply every request failure degrades to."""
        if not isinstance(error, EvaError):  # never let a request kill the connection
            error = ServingError(str(error))
        reply = messages.build_error(
            error, trace_id=getattr(error, "trace_id", None) or trace_id
        )
        if binary:
            return self._frame_reply(*encode_message(reply))
        return self._json_reply(reply)

    # -- negotiation ---------------------------------------------------------------
    def _maybe_hello(self, request: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Answer a wire-negotiation hello; None when this isn't one."""
        if request.get("op") != "hello":
            return None
        reply, negotiated = hello_ack(request, self.server.wire_policy)
        self.protocol = negotiated
        self.negotiated = negotiated == "binary"
        return reply


class _ShardConnection(_WireConnection):
    """One shard/single-server connection: requests in, responses out."""

    server: "EvaTcpServer"

    def __init__(self, server: Any, key: int, peer: str) -> None:
        super().__init__(server, key, peer)
        self.uploads = UploadState()

    def info(self) -> Dict[str, Any]:
        """The shared descriptor plus this connection's assembling uploads."""
        return dict(super().info(), open_uploads=len(self.uploads))

    def _telemetry(self) -> Telemetry:
        return self.server.eva_server.telemetry

    def handle_json(self, text: str) -> _Reply:
        """Answer one JSON-lines request."""
        # Captured as soon as the request parses, so even an error reply
        # echoes the trace id the request carried (quota rejections
        # included — the client can still look the trace up).
        trace_id: Optional[str] = None
        try:
            try:
                parsed = json.loads(text)
            except json.JSONDecodeError as exc:
                raise SerializationError(f"malformed request JSON: {exc}") from exc
            if isinstance(parsed, dict):
                hello = self._maybe_hello(parsed)
                if hello is not None:
                    return self._json_reply(hello)
            request = messages.validate_request(parsed)
            trace_id = request.get("trace_id")
            self.requests += 1
            return self._json_reply(self._dispatch(request, binary=False))
        except Exception as error:
            return self._error_reply(error, trace_id, binary=False)

    def handle_frame(self, frame_type: int, payload: bytes) -> _Reply:
        """Answer one request frame, or absorb one chunk of an upload."""
        if frame_type == FRAME_CHUNK:
            # One slice of a streaming upload; never answered individually.
            # Malformed chunks poison the upload and are reported on the
            # request that references it.
            try:
                envelope, blobs = decode_message(payload)
                self.uploads.add_chunk(envelope, blobs[0] if blobs else b"")
            except TransportError:
                return b"", False
            return b"", True
        trace_id: Optional[str] = None
        try:
            if frame_type != FRAME_REQUEST:
                raise TransportError(
                    f"clients send request frames, got frame type {frame_type:#x}"
                )
            envelope, blobs = decode_message(payload)
            upload_id = envelope.pop(UPLOAD_KEY, None)
            if upload_id is not None:
                blobs = self.uploads.finish(upload_id)
            hello = self._maybe_hello(envelope)
            if hello is not None:
                return self._frame_reply(*encode_message(hello))
            request = messages.validate_request(rehydrate(envelope, blobs))
            trace_id = request.get("trace_id")
            self.requests += 1
            # Raw-blob mode for the whole dispatch: everything packed on the
            # way out (ciphertext outputs, packed vectors) skips base64 and is
            # lifted into binary blob records by the frame encoder — which
            # must run inside the context, while the blob views are alive.
            with raw_blobs():
                reply = self._dispatch(request, binary=True)
                return self._frame_reply(*encode_message(reply))
        except Exception as error:
            return self._error_reply(error, trace_id, binary=True)

    def _dispatch(self, request: Dict[str, Any], binary: bool) -> Dict[str, Any]:
        eva = self.server.eva_server
        op = request["op"]
        if op == "ping":
            return messages.build_response(payload={"pong": True})
        if op == "list":
            return messages.build_response(payload={"programs": eva.programs()})
        if op == "stats":
            stats = dict(eva.stats())
            stats["connections"] = self.server.connection_infos()
            return messages.build_response(payload={"stats": stats})
        if op == "metrics":
            snapshot = eva.metrics_snapshot()
            payload: Dict[str, Any] = {"metrics": snapshot}
            if request.get("format") == "prometheus":
                payload["prometheus"] = render_prometheus(snapshot)
            return messages.build_response(payload=payload)
        if op == "trace":
            return messages.build_response(
                payload={"trace": eva.telemetry.trace_of(request["trace_id"])}
            )
        if op == "slow":
            return messages.build_response(
                payload={"slow": eva.telemetry.slow(request.get("limit"))}
            )
        if op == "health":
            return messages.build_response(
                payload={
                    "health": [
                        {
                            "index": 0,
                            "status": "live",
                            "alive": True,
                            "mode": "single-process",
                        }
                    ]
                }
            )
        if op in ("route", "drain", "rejoin", "join"):
            raise ServingError(
                f"{op} is a cluster operation; this is a single-process server"
            )
        started = time.perf_counter()
        trace_id = request.get("trace_id")
        client_id = request.get("client_id", "default")
        program = request.get("program")
        if op == "session":
            session = eva.create_session(
                request["program"],
                client_id,
                request["evaluation_keys"],
            )
            reply = messages.build_response(payload={"session": session})
            eva.telemetry.finish(
                trace_id,
                time.perf_counter() - started,
                op="session",
                client=client_id,
                program=program,
            )
            return reply
        if "bundle" in request:
            name = request["program"]
            response = eva.request_encrypted(
                name, request["bundle"], client_id=client_id, trace_id=trace_id,
                deadline_ms=request.get("deadline_ms"),
                slo_class=request.get("slo_class"),
            )
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
            eva.telemetry.span(
                trace_id,
                "serialize_reply",
                time.perf_counter() - encode_started,
            )
            return self._finish_submit(request, reply, started, client_id, program)
        response = eva.request(
            request["program"],
            request["inputs"],
            client_id=client_id,
            output_size=request.get("output_size"),
            trace_id=trace_id,
            deadline_ms=request.get("deadline_ms"),
            slo_class=request.get("slo_class"),
        )
        encode_started = time.perf_counter()
        reply = messages.build_response(
            outputs=response.outputs,
            stats=response.stats_dict(),
            pack_outputs=binary,
        )
        eva.telemetry.span(
            trace_id, "serialize_reply", time.perf_counter() - encode_started
        )
        return self._finish_submit(request, reply, started, client_id, program)

    def _finish_submit(
        self,
        request: Dict[str, Any],
        reply: Dict[str, Any],
        started: float,
        client_id: str,
        program: Optional[str],
    ) -> Dict[str, Any]:
        """Close out one submit: total-latency metrics, slow log, trace echo."""
        eva = self.server.eva_server
        trace_id = request.get("trace_id")
        eva.telemetry.finish(
            trace_id,
            time.perf_counter() - started,
            op="submit",
            client=client_id,
            program=program,
        )
        if trace_id and request.get("trace"):
            trace = eva.telemetry.trace_of(trace_id)
            if trace is not None:
                reply["trace"] = trace
        return reply


class EvaTcpServer(AsyncWireServer):
    """TCP front door of one :class:`~repro.serving.server.EvaServer`.

    ``wire_policy`` governs hello negotiation: ``auto``/``binary`` grant
    binary framing to clients that ask for it, ``json`` pins the listener to
    JSON (binary hellos negotiate down; legacy clients are unaffected either
    way).
    """

    connection_class = _ShardConnection
    thread_name = "eva-tcp-server"

    def __init__(
        self,
        eva_server: EvaServer,
        host: str = "127.0.0.1",
        port: int = 0,
        wire_policy: str = "auto",
    ) -> None:
        self.eva_server = eva_server
        super().__init__(host, port, wire_policy)


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

    def __init__(self, server: Any, key: int, peer: str) -> None:
        super().__init__(server, key, peer)
        #: Relayed upload id -> the client id its chunks were routed by.
        self._open_uploads: Dict[str, str] = {}

    @property
    def needs_close(self) -> bool:
        """True while the shard holds chunks no request has claimed."""
        return bool(self._open_uploads)

    def close(self) -> None:
        """Tell the shard to drop the uploads this client left unfinished."""
        for upload_id, client_id in self._open_uploads.items():
            discard = encode_envelope(
                {"upload": upload_id, "discard": True, "client_id": client_id}
            )
            try:
                self.server.cluster._call(
                    client_id, lambda upstream: upstream.send_frame(FRAME_CHUNK, discard)
                )
            except Exception:
                pass  # the shard is gone, and its upload buffers with it
        self._open_uploads.clear()

    def _telemetry(self) -> Telemetry:
        return self.server.telemetry

    def _relayed_upload(self, upload_id: Any) -> str:
        return f"{self.key}/{upload_id}"

    def handle_json(self, text: str) -> _Reply:
        """Answer one JSON-lines request, locally or from the client's shard."""
        trace_id: Optional[str] = None
        try:
            try:
                request = json.loads(text)
            except json.JSONDecodeError as exc:
                raise SerializationError(f"malformed request JSON: {exc}") from exc
            if not isinstance(request, dict):
                raise SerializationError("request must be a JSON object")
            hello = self._maybe_hello(request)
            if hello is not None:
                return self._json_reply(hello)
            trace_id = self._request_trace_id(request)
            self.requests += 1
            local = self._local_reply(request)
            if local is not None:
                return self._json_reply(local)
            # Forwarded (submit/session/unknown): mint a trace id for
            # untraced clients — a string splice, not a re-encode; the
            # payload may be megabytes of ciphertext.
            op = str(request.get("op"))
            client_id = str(request.get("client_id", "default"))
            if op in ("submit", "session") and trace_id is None:
                trace_id = new_trace_id()
                text = messages.splice_field(text, "trace_id", trace_id)
            reply = self._admitted_forward(
                op,
                client_id,
                trace_id,
                request.get("program"),
                lambda: self.server.cluster._call(
                    client_id, lambda upstream: upstream.roundtrip_raw(text)
                ),
            )
            if op in ("submit", "session") and request.get("trace"):
                reply = self._merge_reply_trace(reply, trace_id)
            return self._json_reply(reply)
        except Exception as error:
            return self._error_reply(error, trace_id, binary=False)

    def handle_frame(self, frame_type: int, payload: bytes) -> _Reply:
        """Relay one request frame or upload chunk to the client's shard."""
        cluster = self.server.cluster
        if frame_type == FRAME_CHUNK:
            # Relay the chunk to the client's shard under this connection's
            # upload namespace; chunks are never answered, so routing
            # failures surface on the final request that references the
            # upload.
            try:
                envelope, _end = peek_envelope(payload)
            except TransportError:
                return b"", False
            client_id = str(envelope.get("client_id", "default"))
            upload_id = envelope["upload"] = self._relayed_upload(envelope.get("upload"))
            self._open_uploads[upload_id] = client_id
            chunk = replace_envelope(payload, envelope)
            try:
                cluster._call(
                    client_id,
                    lambda upstream: upstream.send_frame(FRAME_CHUNK, *chunk),
                )
            except Exception:
                pass  # the referencing request reports the failed upload
            return b"", True
        trace_id: Optional[str] = None
        try:
            if frame_type != FRAME_REQUEST:
                raise TransportError(
                    f"clients send request frames, got frame type {frame_type:#x}"
                )
            envelope, _end = peek_envelope(payload)
            hello = self._maybe_hello(envelope)
            if hello is not None:
                return self._frame_reply(*encode_message(hello))
            trace_id = self._request_trace_id(envelope)
            self.requests += 1
            local = self._local_reply(envelope)
            if local is not None:
                with raw_blobs():
                    return self._frame_reply(*encode_message(local))
            op = str(envelope.get("op"))
            client_id = str(envelope.get("client_id", "default"))
            mint = op in ("submit", "session") and trace_id is None
            if mint:  # at the router, for untraced clients
                trace_id = envelope["trace_id"] = new_trace_id()
            upload_id = envelope.get(UPLOAD_KEY)
            if upload_id is not None:
                upload_id = envelope[UPLOAD_KEY] = self._relayed_upload(upload_id)
            # An envelope rewrite re-encodes only that small field; the blob
            # records are relayed as one slice of the original payload.
            parts: Sequence[_Bytes] = (
                replace_envelope(payload, envelope)
                if mint or upload_id is not None
                else (payload,)
            )
            reply_payload = self._admitted_forward(
                op,
                client_id,
                trace_id,
                envelope.get("program"),
                lambda: cluster._call(
                    client_id, lambda upstream: upstream.roundtrip_frame(parts)
                ),
            )
            # The shard answered, so it has claimed (or rejected) the upload.
            self._open_uploads.pop(upload_id, None)
            reply_parts: Sequence[_Bytes] = (reply_payload,)
            if op in ("submit", "session") and envelope.get("trace"):
                reply_parts = self._merge_frame_trace(reply_payload, trace_id)
            return self._frame_reply(*reply_parts)
        except Exception as error:
            return self._error_reply(error, trace_id, binary=True)

    @staticmethod
    def _request_trace_id(request: Dict[str, Any]) -> Optional[str]:
        trace_id = request.get("trace_id")
        if trace_id is not None and not isinstance(trace_id, str):
            raise SerializationError("'trace_id' must be a string")
        return trace_id

    def _local_reply(self, request: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Ops the router answers itself, in either framing: liveness,
        routing introspection, shard lifecycle administration, and the
        cluster-wide views that span shards.  None → forward to a shard."""
        cluster = self.server.cluster
        telemetry = self.server.telemetry
        op = request.get("op")
        client_id = str(request.get("client_id", "default"))
        if op == "ping":
            return messages.build_response(payload={"pong": True})
        if op == "route":
            return messages.build_response(
                payload={"route": cluster.describe_route(client_id)}
            )
        if op == "health":
            return messages.build_response(payload={"health": cluster.check_health()})
        if op == "drain":
            shard = messages.validate_shard(op, request.get("shard"))
            return messages.build_response(
                payload={"drain": cluster.drain_shard(shard)}
            )
        if op == "rejoin":
            shard = messages.validate_shard(op, request.get("shard"))
            return messages.build_response(
                payload={"rejoin": cluster.rejoin_shard(shard)}
            )
        if op == "join":
            return messages.build_response(
                payload={
                    "join": cluster.attach_shard(
                        str(request["host"]), int(request["port"])
                    )
                }
            )
        if op == "list":
            return messages.build_response(payload={"programs": cluster.programs()})
        if op == "stats":
            stats = dict(cluster.stats())
            stats["connections"] = self.server.connection_infos()
            return messages.build_response(payload={"stats": stats})
        if op == "metrics":
            # The cluster-wide snapshot: every live shard's registry plus the
            # router's own, aggregated (per-shard labeled series + summed
            # totals with percentiles recomputed from merged buckets).
            snapshots = cluster.shard_metrics()
            snapshots["cluster"] = cluster.telemetry.registry.snapshot()
            snapshots["router"] = telemetry.registry.snapshot()
            snapshot = aggregate_snapshots(snapshots)
            payload: Dict[str, Any] = {"metrics": snapshot}
            if request.get("format") == "prometheus":
                payload["prometheus"] = render_prometheus(snapshot)
            return messages.build_response(payload=payload)
        if op == "trace":
            queried = request.get("trace_id")
            if not isinstance(queried, str):
                raise SerializationError("trace requests need a string 'trace_id'")
            parts = cluster.shard_traces(queried)
            parts.append(telemetry.trace_of(queried))
            return messages.build_response(payload={"trace": merge_traces(parts)})
        if op == "slow":
            limit = request.get("limit")
            records = cluster.shard_slow(limit)
            records.extend(telemetry.slow(limit))
            records.sort(key=lambda r: r.get("ts", 0.0), reverse=True)
            if limit is not None:
                records = records[: max(int(limit), 0)]
            return messages.build_response(payload={"slow": records})
        return None

    def _admitted_forward(
        self,
        op: str,
        client_id: str,
        trace_id: Optional[str],
        program: Any,
        forward: Callable[[], Any],
    ) -> Any:
        """Quota admission + telemetry around one forwarded request.

        submit/session pass per-client admission first — sessions are the
        *heaviest* op (key import + persistence), so exempting them would
        leave the biggest hole — and the router is the cheap place to say
        429, before the request ever costs a shard anything.
        """
        telemetry = self.server.telemetry
        ledger = self.server.ledger
        started = time.perf_counter()
        if op in ("submit", "session") and ledger.enabled:
            admit_started = time.perf_counter()
            try:
                ledger.admit(client_id)  # raises QuotaExceededError
            except EvaError as exc:
                telemetry.inc("serving.router.throttled", client=client_id)
                # The handler's except path never saw the parsed request, so
                # carry the trace id on the exception — a throttled client
                # still gets a correlatable reply.
                exc.trace_id = trace_id
                raise
            telemetry.span(
                trace_id,
                "quota_admission",
                time.perf_counter() - admit_started,
                client=client_id,
            )
            try:
                reply = self._timed_forward(op, client_id, trace_id, forward)
            finally:
                ledger.release(client_id)
        else:
            reply = self._timed_forward(op, client_id, trace_id, forward)
        if op in ("submit", "session"):
            telemetry.finish(
                trace_id,
                time.perf_counter() - started,
                op=op,
                client=client_id,
                program=program,
            )
        return reply

    def _timed_forward(
        self,
        op: str,
        client_id: str,
        trace_id: Optional[str],
        forward: Callable[[], Any],
    ) -> Any:
        """Run one shard hop, timing it as a span."""
        forward_started = time.perf_counter()
        reply = forward()
        self.server.telemetry.span(
            trace_id,
            "router_forward",
            time.perf_counter() - forward_started,
            client=client_id,
            op=op,
        )
        self.server.telemetry.inc(
            "serving.router.forwarded", client=client_id, op=op
        )
        return reply

    def _merge_reply_trace(self, reply: str, trace_id: Optional[str]) -> str:
        """Fold the router's spans into the trace object a shard echoed.

        Only runs for requests that asked for an echo (``"trace": true``), so
        the decode/re-encode cost is opt-in; untraced ciphertext replies are
        still relayed verbatim.
        """
        if not trace_id:
            return reply
        router_view = self.server.telemetry.trace_of(trace_id)
        if router_view is None:
            return reply
        try:
            message = json.loads(reply)
        except json.JSONDecodeError:
            return reply
        if not isinstance(message, dict):
            return reply
        merged = merge_traces([message.get("trace"), router_view])
        if merged is not None:
            message["trace"] = merged
        return json.dumps(message, separators=(",", ":")) + "\n"

    def _merge_frame_trace(
        self, reply_payload: _Bytes, trace_id: Optional[str]
    ) -> Sequence[_Bytes]:
        """Binary variant of :meth:`_merge_reply_trace`: rewrites only the
        reply's envelope field; ciphertext blob records are relayed as one
        slice of the original payload."""
        if not trace_id:
            return (reply_payload,)
        router_view = self.server.telemetry.trace_of(trace_id)
        if router_view is None:
            return (reply_payload,)
        try:
            envelope, _end = peek_envelope(reply_payload)
        except TransportError:
            return (reply_payload,)
        merged = merge_traces([envelope.get("trace"), router_view])
        if merged is None:
            return (reply_payload,)
        envelope["trace"] = merged
        return replace_envelope(reply_payload, envelope)


class ClusterTcpServer(AsyncWireServer):
    """Router front door of an :class:`~repro.serving.cluster.EvaCluster`.

    Owns the public listener; every request is forwarded to the shard its
    client consistent-hashes to.  The wire protocols are identical to
    :class:`EvaTcpServer`'s — JSON lines and binary frames on one socket,
    governed by the same ``wire_policy`` — plus the cluster admin ops:
    ``route`` (which shard/pid a client maps to), ``health`` (per-shard
    liveness), ``drain`` and ``rejoin`` (shard lifecycle) — useful for chaos
    drills, rolling restarts, and smoke tests.

    When the cluster carries a :class:`~repro.serving.quotas.FairnessPolicy`
    (or one is passed explicitly), the router enforces per-client rate and
    in-flight quotas *before* forwarding: a throttled client gets a
    ``QuotaExceededError`` reply with ``retry_after`` and its request never
    costs a shard anything.
    """

    connection_class = _RouterConnection
    thread_name = "eva-cluster-router"

    def __init__(
        self,
        cluster: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        fairness: Optional[FairnessPolicy] = None,
        slow_threshold: float = 1.0,
        wire_policy: str = "auto",
    ) -> None:
        self.cluster = cluster
        if fairness is None:
            fairness = getattr(cluster, "fairness", None)
        self.ledger = QuotaLedger(fairness)
        #: The router's own telemetry plane: forward/admission spans, router
        #: counters, and router-side slow-request detection (end-to-end
        #: latency as the client experienced it, including the shard hop).
        self.telemetry = Telemetry(slow_threshold=slow_threshold, shard="router")
        super().__init__(host, port, wire_policy)


class ServingClient:
    """Dual-protocol client for :class:`EvaTcpServer` (and the router).

    ``wire`` selects the framing: ``auto`` (default) negotiates the binary
    frame protocol with a hello exchange and falls back to JSON lines when
    the server is legacy or pinned; ``binary`` demands frames (raising
    :class:`~repro.errors.ServingError` when refused); ``json`` skips
    negotiation entirely and speaks the original line protocol.  The
    negotiated result is ``self.protocol``; ``bytes_sent``/``bytes_received``
    count the traffic on this connection.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 30.0,
        wire: str = "auto",
    ) -> None:
        if wire not in WIRE_MODES:
            raise ServingError(
                f"unknown wire mode {wire!r}; expected one of {WIRE_MODES}"
            )
        self.wire_mode = wire
        self.protocol = "json"
        self.protocol_version: Optional[int] = None
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
        if wire != "json":
            self._negotiate(wire)

    # -- transport ----------------------------------------------------------------
    def _negotiate(self, mode: str) -> None:
        """The hello exchange: a JSON line even legacy servers can answer."""
        line = json.dumps(build_hello(mode), separators=(",", ":")) + "\n"
        raw = self.roundtrip_raw(line)
        try:
            reply = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise TransportError(f"malformed hello reply: {exc}") from exc
        if not isinstance(reply, dict):
            raise TransportError("hello reply must be a JSON object")
        self.protocol, self.protocol_version = parse_hello_reply(reply, mode)

    def roundtrip_raw(self, text: str) -> str:
        """Send one raw JSON request line, return the raw reply line.

        Transport failures raise :class:`~repro.errors.TransportError` so
        routing layers can distinguish "the connection died" (fail over) from
        an application-level error reply (do not).
        """
        if not text.endswith("\n"):
            text += "\n"
        data = text.encode("utf-8")
        try:
            self._file.write(data)
            self._file.flush()
        except OSError as exc:
            raise TransportError(f"connection to server lost: {exc}") from exc
        self.bytes_sent += len(data)
        kind, reply = self._read_reply_unit()
        if kind != "json":
            raise TransportError("server answered a JSON request with a binary frame")
        return reply

    def send_frame(self, frame_type: int, *parts: _Bytes) -> int:
        """Write one binary frame (no reply expected); returns bytes written."""
        try:
            written = write_frame(self._file, frame_type, *parts)
            self._file.flush()
        except OSError as exc:
            raise TransportError(f"connection to server lost: {exc}") from exc
        self.bytes_sent += written
        return written

    def _read_reply_unit(self) -> Tuple[str, Any]:
        """Read one reply in whichever framing it arrives: ("binary",
        payload bytes) or ("json", text)."""
        try:
            message = read_message(self._decoder, self._sock.recv)
        except OSError as exc:
            raise TransportError(f"connection to server lost: {exc}") from exc
        if message[0] == "json":
            self.bytes_received += len(message[1])
            return "json", message[1].decode("utf-8")
        _kind, frame_type, payload, nbytes = message
        self.bytes_received += nbytes
        if frame_type != FRAME_RESPONSE:
            raise TransportError(
                f"expected a response frame, got frame type {frame_type:#x}"
            )
        return "binary", payload

    def roundtrip_frame(self, parts: Sequence[_Bytes]) -> bytes:
        """Send one pre-encoded request frame, return the raw reply payload.

        The router's binary passthrough path: the caller relays the returned
        payload verbatim without decoding its blob records.
        """
        self.send_frame(FRAME_REQUEST, *parts)
        kind, payload = self._read_reply_unit()
        if kind != "binary":
            raise TransportError("shard answered a binary request with a JSON line")
        return payload

    # -- request plumbing ---------------------------------------------------------
    def _blob_context(self):
        """Raw (base64-free) packing while building binary-bound payloads."""
        return raw_blobs() if self.protocol == "binary" else nullcontext()

    def _binary_roundtrip(self, message: Dict[str, Any]) -> Dict[str, Any]:
        envelope, blobs = split_message(message)
        total = sum(len(blob) for blob in blobs)
        if blobs and total > STREAM_THRESHOLD_BYTES:
            # Stream the blobs as bounded CHUNK frames so a multi-MB key set
            # never head-of-line-blocks the connection behind one giant
            # frame; the final request frame references the upload.
            self._upload_seq += 1
            upload_id = f"up-{self._upload_seq}"
            client_id = str(message.get("client_id", "default"))
            for index, blob in enumerate(blobs):
                views = list(iter_chunks(blob))
                for position, view in enumerate(views):
                    chunk_envelope = {
                        "upload": upload_id,
                        "blob": index,
                        "eof": position == len(views) - 1,
                        "client_id": client_id,
                    }
                    self.send_frame(
                        FRAME_CHUNK,
                        encode_envelope(chunk_envelope),
                        *encode_blob_record(view),
                    )
            envelope[UPLOAD_KEY] = upload_id
            self.send_frame(FRAME_REQUEST, encode_envelope(envelope))
        else:
            parts: List[_Bytes] = [encode_envelope(envelope)]
            for blob in blobs:
                parts.extend(encode_blob_record(blob))
            self.send_frame(FRAME_REQUEST, *parts)
        kind, payload = self._read_reply_unit()
        if kind == "binary":
            reply_envelope, reply_blobs = decode_message(payload)
            return messages.finish_response(rehydrate(reply_envelope, reply_blobs))
        return messages.decode_response(payload)

    def _roundtrip_op(self, op: str, **fields: Any) -> Dict[str, Any]:
        if self.protocol == "binary":
            with raw_blobs():
                message = messages.build_request(op, pack_inputs=True, **fields)
            response = self._binary_roundtrip(message)
        else:
            response = messages.decode_response(
                self.roundtrip_raw(messages.encode_request(op, **fields))
            )
        if not response.get("ok"):
            kind = response.get("kind", "ServingError")
            if kind == "QuotaExceededError":
                # The serving layer's 429: re-raise typed, with the server's
                # retry-after hint, so callers can back off instead of just
                # failing.  The echoed trace id rides along so a throttled
                # request stays correlatable.
                error = QuotaExceededError(
                    str(response.get("error")),
                    retry_after=float(response.get("retry_after", 0.0) or 0.0),
                )
                error.trace_id = response.get("trace_id")
                raise error
            if kind == "DeadlineInfeasibleError":
                # The SLO-admission rejection: typed like the quota 429, with
                # the server's retry-after hint, so a deadline-carrying client
                # can re-plan instead of treating it as a generic failure.
                error = DeadlineInfeasibleError(
                    str(response.get("error")),
                    retry_after=float(response.get("retry_after", 0.0) or 0.0),
                )
                error.trace_id = response.get("trace_id")
                raise error
            raise ServingError(f"{kind}: {response.get('error')}")
        return response

    # -- client API ---------------------------------------------------------------
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
        if trace and trace_id is None:
            trace_id = new_trace_id()
        response = self._roundtrip_op(
            "submit",
            program=program,
            inputs=inputs,
            client_id=client_id,
            output_size=output_size,
            trace_id=trace_id,
            trace=trace,
            deadline_ms=deadline_ms,
            slo_class=slo_class,
        )
        self.last_stats: Dict[str, Any] = response.get("stats", {})
        self.last_trace: Optional[Dict[str, Any]] = response.get("trace")
        return response.get("outputs", {})

    def create_session(self, program: str, client_kit: Any, client_id: Optional[str] = None) -> Dict[str, Any]:
        """Register ``client_kit``'s evaluation keys for ``program`` on the server.

        ``client_kit`` is a :class:`repro.api.ClientKit` (anything exposing
        ``export_evaluation_keys()``); the secret key never leaves the client.
        On a binary connection the keys are exported raw (no base64) and
        streamed as chunked frames when they exceed the streaming threshold.
        """
        with self._blob_context():
            evaluation_keys = client_kit.export_evaluation_keys()
        response = self._roundtrip_op(
            "session",
            program=program,
            client_id=client_id or getattr(client_kit, "client_id", "default"),
            evaluation_keys=evaluation_keys,
        )
        return response.get("session", {})

    def submit_bundle(
        self,
        program: str,
        bundle_wire: Dict[str, Any],
        client_id: str = "default",
        trace: bool = False,
        trace_id: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        slo_class: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit a wire-encoded cipher bundle; returns wire-encoded ciphertext outputs."""
        if trace and trace_id is None:
            trace_id = new_trace_id()
        response = self._roundtrip_op(
            "submit",
            program=program,
            bundle=bundle_wire,
            client_id=client_id,
            trace_id=trace_id,
            trace=trace,
            deadline_ms=deadline_ms,
            slo_class=slo_class,
        )
        self.last_stats = response.get("stats", {})
        self.last_trace = response.get("trace")
        return response.get("encrypted_outputs", {})

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
        with self._blob_context():
            bundle_wire = client_kit.bundle_to_wire(bundle)
        reply = self.submit_bundle(
            program,
            bundle_wire,
            client_id=client_id or getattr(client_kit, "client_id", "default"),
            trace=trace,
            deadline_ms=deadline_ms,
            slo_class=slo_class,
        )
        return client_kit.decrypt_outputs(client_kit.outputs_from_wire(reply))

    def programs(self) -> list:
        """Registered program names on the server."""
        return self._roundtrip_op("list").get("programs", [])

    def route(self, client_id: str = "default") -> Dict[str, Any]:
        """Which shard serves ``client_id`` (cluster servers only)."""
        return self._roundtrip_op("route", client_id=client_id).get("route", {})

    def health(self) -> list:
        """Per-shard health report (single servers report one live shard)."""
        return self._roundtrip_op("health").get("health", [])

    def drain(self, shard: int) -> Dict[str, Any]:
        """Take ``shard`` out of the ring without stopping it (cluster only)."""
        return self._roundtrip_op("drain", shard=shard).get("drain", {})

    def rejoin(self, shard: int) -> Dict[str, Any]:
        """Return ``shard`` to the ring, respawning it if dead (cluster only)."""
        return self._roundtrip_op("rejoin", shard=shard).get("rejoin", {})

    def join(self, host: str, port: int) -> Dict[str, Any]:
        """Attach a running remote shard at ``host:port`` to the ring (cluster only)."""
        return self._roundtrip_op("join", host=host, port=port).get("join", {})

    def stats(self) -> Dict[str, Any]:
        """The server's stats() snapshot."""
        return self._roundtrip_op("stats").get("stats", {})

    def metrics(self, prometheus: bool = False) -> Dict[str, Any]:
        """The server's unified metrics snapshot (cluster-aggregated on routers).

        With ``prometheus=True`` the reply additionally carries the rendered
        text exposition under ``"prometheus"``.
        """
        response = self._roundtrip_op(
            "metrics", fmt="prometheus" if prometheus else None
        )
        result = {"metrics": response.get("metrics", {})}
        if "prometheus" in response:
            result["prometheus"] = response["prometheus"]
        return result

    def trace_of(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """The recorded per-stage spans of one trace id (None when unknown)."""
        return self._roundtrip_op("trace", trace_id=trace_id).get("trace")

    def slow(self, limit: Optional[int] = None) -> list:
        """Recent slow requests, newest first (cluster-merged on routers)."""
        return self._roundtrip_op("slow", limit=limit).get("slow", [])

    def ping(self) -> bool:
        """Liveness probe; True when the server answers."""
        return bool(self._roundtrip_op("ping").get("pong"))

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
