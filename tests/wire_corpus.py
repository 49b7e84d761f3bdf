"""The pinned wire corpus: every op, both framings, with and without options.

``python tests/wire_corpus.py [fmt]`` prints the corpus of the ``repro`` on
``PYTHONPATH`` as JSON; ``tests/data/wire_corpus.json`` is that output at the
commit before the op table (whose ``build_request`` called the ``format`` field
``fmt``), and ``tests/test_op_table.py`` holds the current code to it.  The
replies' program ``signature`` strings were re-derived once, when the
signature became a hash of the program's proto bytes.
"""

import json
import sys

import numpy as np
from test_aionet import (
    FakeListener,
    FakeRouter,
    LoopbackUpstream,
    StubCluster,
    exchange,
    make_poly_program,
    on_wire,
)

from repro import wire
from repro.api import ClientKit, CompiledProgram
from repro.backend import MockBackend
from repro.core.serialization import messages
from repro.core.serialization.packing import raw_blobs
from repro.serving import EvaServer, netserver

X = [1.0, 2.5, -3.0, 0.5]
BUNDLE = {"program_signature": "sig", "ciphertexts": {"x": {"k": 1}}}
KEYS = {"relin": {"k": 1}, "galois": {}}

#: Every op, with and without its optional fields (the sessions first, so the
#: bundle submits of the reply corpus find alice's).
REQUESTS = [
    ("session", dict(program="poly", evaluation_keys=KEYS)),
    ("session", dict(program="poly", evaluation_keys=KEYS, client_id="alice", trace_id="t-3")),
    ("submit", dict(program="poly", inputs={"x": X})),
    ("submit", dict(program="poly", inputs={"x": X}, client_id="alice", output_size=2,
                    trace_id="t-1", trace=True, deadline_ms=250, slo_class="tight")),
    ("submit", dict(program="poly", bundle=BUNDLE, client_id="alice")),
    ("submit", dict(program="poly", bundle=BUNDLE, client_id="alice", trace_id="t-2",
                    trace=True, deadline_ms=12.5, slo_class="relaxed")),
    ("stats", {}),
    ("list", {}),
    ("ping", {}),
    ("ping", dict(trace_id="t-4")),
    ("route", {}),
    ("route", dict(client_id="alice")),
    ("health", {}),
    ("drain", dict(shard=2)),
    ("rejoin", dict(shard=0)),
    ("metrics", {}),
    ("metrics", dict(format="prometheus")),
    ("trace", dict(trace_id="t-5")),
    ("slow", {}),
    ("slow", dict(limit=3)),
]  # fmt: skip


def request_corpus(format_keyword="format"):
    """Each of REQUESTS as its JSON line and as its binary request frame (hex).

    ``format_keyword`` is what ``build_request`` calls the ``format`` field
    (``fmt`` at the commit the corpus was captured at).
    """
    rows = []
    for op, fields in REQUESTS:
        kwargs = {(format_keyword if k == "format" else k): v for k, v in fields.items()}
        line = messages.encode_request(op, **kwargs)
        with raw_blobs():
            message = messages.build_request(op, pack_inputs=True, **kwargs)
            frame = wire.encode_frame(wire.FRAME_REQUEST, *wire.encode_message(message))
        rows.append({"op": op, "fields": fields, "json": line, "binary": frame.hex()})
    return rows


class ScriptedCluster(StubCluster):
    """A cluster whose every admin answer is a fixed value naming its arguments."""

    def programs(self):
        return ["poly"]

    def stats(self):
        return {"shards": 2, "live": [0, 1]}

    def metrics_snapshot(self, planes=()):
        counter = {"name": "serving.requests", "labels": {"program": "poly"}, "value": float(len(planes))}
        return {"counters": [counter], "gauges": [], "histograms": [], "dropped_series": 0}

    def trace_of(self, trace_id, planes=()):
        return {"trace_id": trace_id, "spans": [], "planes": len(planes)}

    def slow_requests(self, limit, planes=()):
        return [{"limit": limit, "planes": len(planes)}]

    def check_health(self):
        return [{"index": 0, "status": "live"}, {"index": 1, "status": "dead"}]

    def describe_route(self, client_id):
        return {"client_id": client_id, "shard": 1}

    def drain_shard(self, shard):
        return {"drained": shard}

    def rejoin_shard(self, shard):
        return {"rejoined": shard}


def connections(server):
    """A shard connection over ``server`` and a router connection over it."""
    shard = netserver._ShardConnection(FakeListener(server), 1, "test:0")
    cluster = ScriptedCluster(LoopbackUpstream(shard))
    return {"shard": shard, "router": netserver._RouterConnection(FakeRouter(cluster), 7, "test:1")}


def _shape(value):
    """Keys (recursively) and types of a volatile value: timings, ids, counters."""
    if isinstance(value, dict):
        return {key: _shape(item) for key, item in sorted(value.items())}
    if isinstance(value, list):
        return [_shape(item) for item in value[:1]]
    return type(value).__name__


def normalized(endpoint, reply, fields):
    """A reply with its run-dependent values reduced to their shape."""
    reply = {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in reply.items()}
    if "outputs" in reply:
        reply["outputs"] = {k: np.asarray(v).tolist() for k, v in reply["outputs"].items()}
    for key in ("stats", "trace", "encrypted_outputs") + (("metrics", "prometheus", "slow") if endpoint == "shard" else ()):
        if reply.get(key) is not None:
            reply[key] = _shape(reply[key])
    if "trace_id" in reply and "trace_id" not in fields:
        reply["trace_id"] = "<minted by the router>"
    if reply.get("kind") == "SerializationError":
        reply["error"] = "<text>"  # the kind is pinned, the wording is not
    return reply


def reply_corpus():
    """What a shard and a router connection answer each of REQUESTS, per framing."""
    rows = []
    server = EvaServer(backend=MockBackend(error_model="none"), workers=1)
    server.register("poly", make_poly_program())
    # The request corpus pins placeholders; a server wants the real things.
    kit = ClientKit(
        CompiledProgram.compile(make_poly_program().graph),
        backend=MockBackend(error_model="none"),
        client_id="alice",
    )
    real = {
        "evaluation_keys": kit.export_evaluation_keys(),
        "bundle": kit.bundle_to_wire(kit.encrypt_inputs({"x": X})),
    }
    try:
        for endpoint, conn in connections(server).items():
            for framing in (wire.JSON, wire.BINARY):
                for op, fields in REQUESTS:
                    message = dict(fields, op=op)
                    message.update({name: real[name] for name in real if name in fields})
                    if "inputs" in fields:
                        with framing.blob_context():
                            message = messages.build_request(op, pack_inputs=framing.packed, **fields)
                    reply = exchange(conn, on_wire(framing, message))
                    rows.append(
                        {"endpoint": endpoint, "framing": framing.name, "op": op,
                         "fields": sorted(fields), "reply": normalized(endpoint, reply, fields)}
                    )  # fmt: skip
    finally:
        server.close()
    return rows


if __name__ == "__main__":
    corpus = {"requests": request_corpus(*sys.argv[1:2]), "replies": reply_corpus()}
    print(json.dumps(corpus, indent=1))
