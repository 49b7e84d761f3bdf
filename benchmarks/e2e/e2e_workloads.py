"""The four workloads: what is set up, what is timed, what is checked.

Every workload returns a :class:`WorkloadResult`.  The untraced run yields
the end-to-end metrics; the traced run alternates traced and untraced
operations in the same loop, so ``trace.overhead_frac`` compares two
interleaved samples of one server instead of two runs minutes apart, and
fills the per-layer metrics from client-side spans, the server's reply
spans and ``metrics`` snapshots taken before and after the timed phase.
Two probes ride along in traced runs only and feed per-layer metrics alone:
the one-shard router detour (``rotate_sum``) and the compile zoo
(``batch_pairs``).
"""

from __future__ import annotations

import gc
import json
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

import e2e_programs as programs
from statistics import geometric_mean

from e2e_stats import (
    Tracer,
    median,
    paced_schedule,
    percentile,
    supports_percentile,
    unattributed_fraction,
)
from e2e_sut import REQUEST_TIMEOUT_S, ServerProcess, own_peak_rss_mb

from repro import wire
from repro.api import ClientKit, CompiledProgram, CompilerOptions, EvaCompiler, Executor
from repro.core.analysis import select_parameters, select_rotation_steps, validate
from repro.core.compiler import program_signature
from repro.core.serialization import messages, save
from repro.core.serialization.packing import raw_blobs
from repro.errors import EvaError, TransportError
from repro.serving import BackendSpec, ServingClient

#: What a failed operation can raise: a typed serving/transport error, or the
#: socket (timeout, reset) underneath it.
OPERATION_ERRORS = (EvaError, OSError)

#: Server-side trace stage -> span name.  A span named ``a.b`` is reported
#: as the per-layer metric ``a.b_s`` (median seconds over traced requests).
SERVER_STAGES = {
    "quota_admission": "serving.quota_admission",
    "compile_or_cache": "serving.registry.compile_or_cache",
    "queue_wait": "serving.jobs.queue_wait",
    "batch_form": "serving.jobs.batch_form",
    "execute": "serving.execute",
    "serialize_reply": "serving.serialize_reply",
    "router_forward": "cluster.router_forward",
}
CKKS_OPS = (
    "rotate", "relinearize", "multiply", "multiply_plain", "rescale", "mod_switch",
    "add", "add_plain", "encode", "encrypt", "decrypt",
)  # fmt: skip


@dataclass
class RunConfig:
    seed: int
    seconds: float
    traced: bool
    src_dir: Path
    out_dir: Path
    #: "ckks" always, except in the harness's own fast test ("mock").
    backend: str = "ckks"


@dataclass
class WorkloadResult:
    workload: str
    attempted: int = 0
    failed: int = 0
    samples: int = 0
    warmup: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)


class Operation(NamedTuple):
    """One timed operation, kept until the outputs have been checked."""

    seconds: float
    wire_bytes: int
    ok: bool
    traced: bool = False
    kind: str = ""


# -- shared pieces -----------------------------------------------------------------
def _backend(cfg: RunConfig, seed: int):
    return BackendSpec(name=cfg.backend, seed=seed).build()


def _close_enough(actual: Any, expected: np.ndarray, atol: float) -> bool:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape[0] < expected.shape[0]:
        return False
    return bool(np.all(np.abs(actual[: expected.shape[0]] - expected) <= atol))


#: Set-ups per untraced run; ``setup_s`` is the fastest of them, not their
#: median.  A new server builds tables of 134 MB (N=4096) to 537 MB (N=8192),
#: and on this VM the first write to memory the host has taken back costs
#: about 4 s per GiB of system time, against 0.25 s per GiB for memory the
#: host still backs; which of the two a server gets changes from one set-up
#: to the next, less often since :func:`_back_memory` runs between them.
#: Such waits only ever add time, so the minimum is the part that repeats;
#: every repetition is kept in the result document.  Three everywhere: a
#: set-up at N=8192 takes 2-3 s (4-12 s the first time) plus 2-4 s of backing.
SETUP_REPS = {"rotate_sum": 3, "relin_poly": 3, "session_churn": 3, "batch_pairs": 3}

#: The tail reported next to the median: the highest of p75/p90/p95 that a
#: 16 s run's sample count (about 85 and 128) leaves ten samples beyond, with
#: room for a slow run.  The other two workloads yield about 25 samples,
#: which support no tail.
TAIL_PERCENTILE = {"rotate_sum": 75, "batch_pairs": 90}


def _back_memory(megabytes: float) -> None:
    """Write to this much fresh memory and release it, so the host has it backed.

    The next server's first writes then find pages the host still backs: at
    N=8192 ``create_session`` took 0.54-0.58 s after this in five of seven
    set-ups (1.3-1.6 s in two), against 0.6-2.3 s without it.  It takes
    0.1-3 s per GiB and no set-up's clock is running.
    """
    np.ones(int(megabytes * 2**20) // 8)


def _timed_setups(cfg: RunConfig, workload: str,
                  set_up: Callable[[ExitStack], Any]) -> Tuple[Any, ExitStack, List[float]]:
    """Run ``set_up`` several times (once when traced); keep the last one's state open.

    Each repetition starts from nothing this process can release: a new
    server process, new keys, a new session, a new warm-up.  What the harness
    process itself caches on first use (encoder tables) lands in the first
    repetition only and ``setup.first_s`` shows it.  ``set_up`` returns its
    server first; before every repetition but the first, twice the previous
    server's peak memory is backed (see :func:`_back_memory`).
    """
    seconds: List[float] = []
    reps = 1 if cfg.traced else SETUP_REPS[workload]
    for rep in range(reps):
        stack = ExitStack()
        try:
            started = time.perf_counter()
            state = set_up(stack)
            seconds.append(time.perf_counter() - started)
        except BaseException:
            stack.close()
            raise
        if rep < reps - 1:
            server_peak_mb = state[0].peak_rss_mb()
            stack.close()
            _back_memory(2 * server_peak_mb)
    return state, stack, seconds


def _finish(
    result: WorkloadResult,
    operations: List[Operation],
    *,
    duration: float,
    setup_seconds: List[float],
    slo_seconds: float,
    peak_rss_mb: float,
    sut_cpu_seconds: float,
    op_bytes: Optional[float] = None,
) -> None:
    """Fill counts, the end-to-end metrics and throughput/CPU from the checked operations."""
    plain = [op for op in operations if not op.traced]
    good = [op.seconds for op in plain if op.ok]
    result.attempted = len(operations)
    result.failed = sum(1 for op in operations if not op.ok)
    result.samples = len(good)
    if not good:
        raise RuntimeError(f"{result.workload}: no operation succeeded")
    within = sum(1 for seconds in good if seconds <= slo_seconds)
    if op_bytes is None:
        op_bytes = median([op.wire_bytes for op in plain if op.ok])
    result.metrics.update(
        {
            "setup_s": min(setup_seconds),
            "op_p50_s": median(good),
            "op_bytes": float(op_bytes),
            "ops_per_s": sum(1 for op in operations if op.ok) / duration,
            "slo_attained_frac": within / len(plain),
            "peak_rss_mb": peak_rss_mb,
            "sut_cpu_s_per_op": sut_cpu_seconds / len(operations),
        }
    )
    result.notes.update(
        {
            "setup_seconds": setup_seconds,
            "slo_seconds": slo_seconds,
            "timed_seconds": duration,
        }
    )
    tail = TAIL_PERCENTILE.get(result.workload)
    if tail is not None and supports_percentile(len(good), tail):
        result.notes.update({"tail_percentile": tail, "op_tail_s": percentile(good, tail)})


def _server_spans(tracer: Tracer, trace: Optional[Dict[str, Any]], request: str, parent: int,
                  roundtrip_seconds: float) -> None:
    """Hang the reply's server stages under the round trip that carried them."""
    if not trace:
        return
    queue_wait = None
    for span in trace.get("spans", []):
        name = SERVER_STAGES.get(str(span.get("stage")))
        if name is None:
            continue
        # The batcher's linger happens while the job waits in the queue.
        owner = queue_wait if span["stage"] == "batch_form" and queue_wait is not None else parent
        index = tracer.add(name, span["seconds"], request, owner, ts=span.get("ts"))
        if span["stage"] == "queue_wait":
            queue_wait = index
        # The server reports a batch's execution divided by its size; the job
        # still waited for the whole of it.
        peers = int(span.get("batch_size", 1)) - 1
        if span["stage"] == "execute" and peers > 0:
            tracer.add("serving.batch.shared_execute", span["seconds"] * peers, request, parent)
    total = float(trace.get("total_seconds", 0.0))
    tracer.add("net.transport_residual", roundtrip_seconds - total, request, parent)


def _span_medians(tracer: Tracer) -> Dict[str, float]:
    """Median seconds of every layer span, as ``<span name>_s``."""
    return {
        f"{name}_s": median(seconds)
        for name, seconds in tracer.seconds_by_name().items()
        if name not in ("request", "gen.late")
    }


def _bookkeeping(metrics: Dict[str, float], operations: List[Operation], setup_seconds: List[float]) -> None:
    """What every traced run reports about the measurement itself."""
    plain = [op.seconds for op in operations if op.ok and not op.traced]
    traced = [op.seconds for op in operations if op.ok and op.traced]
    if plain and traced:
        metrics["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
    metrics["client_peak_rss_mb"] = own_peak_rss_mb()
    metrics["setup.first_s"] = setup_seconds[0]


def _counter_totals(snapshot: Dict[str, Any], name: str) -> Dict[str, float]:
    """Sum a labelled counter of a ``metrics`` snapshot by its ``op`` label."""
    totals: Dict[str, float] = {}
    for counter in snapshot.get("metrics", {}).get("counters", []):
        if counter.get("name") == name:
            op = str(counter.get("labels", {}).get("op"))
            totals[op] = totals.get(op, 0.0) + float(counter.get("value", 0.0))
    return totals


def _gauge(snapshot: Dict[str, Any], name: str) -> float:
    for gauge in snapshot.get("metrics", {}).get("gauges", []):
        if gauge.get("name") == name:
            return float(gauge.get("value", 0.0))
    return 0.0


def _histogram_sum(snapshot: Dict[str, Any], name: str) -> float:
    return sum(
        float(histogram.get("sum", 0.0))
        for histogram in snapshot.get("metrics", {}).get("histograms", [])
        if histogram.get("name") == name
    )


def _drain_client_ops(kit: ClientKit) -> Dict[str, Tuple[int, float]]:
    """The client kit's own ``{op: (count, seconds)}`` since the last call (real backend only)."""
    return getattr(kit.context, "drain_op_times", dict)()


def _ckks_layer_metrics(before: Dict[str, Any], after: Dict[str, Any], client_ops: Dict[str, Tuple[int, float]],
                        requests: int) -> Dict[str, float]:
    """``ckks.op.*`` per request: server counter deltas plus the client kit's own ops."""
    metrics: Dict[str, float] = {}
    counts = [_counter_totals(snapshot, "ckks.op.count") for snapshot in (before, after)]
    times = [_counter_totals(snapshot, "ckks.op.seconds") for snapshot in (before, after)]
    op_seconds_total = 0.0
    for op in CKKS_OPS:
        count = counts[1].get(op, 0.0) - counts[0].get(op, 0.0)
        seconds = times[1].get(op, 0.0) - times[0].get(op, 0.0)
        op_seconds_total += seconds
        client_count, client_seconds = client_ops.get(op, (0, 0.0))
        metrics[f"ckks.op.{op}.count"] = (count + client_count) / requests
        metrics[f"ckks.op.{op}.seconds"] = (seconds + client_seconds) / requests
    # Server-side evaluation time no homomorphic op accounts for (both sides are
    # totals over the same window, so batching and outliers cancel).
    executed = _histogram_sum(after, "serving.execute.seconds") - _histogram_sum(
        before, "serving.execute.seconds"
    )
    metrics["core.executor.dispatch_s"] = (executed - op_seconds_total) / requests
    return metrics


def _ntt_kernel_metrics(parameters, cfg: RunConfig) -> Dict[str, float]:
    """Direct timing of one full-chain NTT at the workload's (N, chain)."""
    from repro.ckks.ntt import get_ntt_context
    from repro.ckks.numth import generate_ntt_primes

    degree = parameters.poly_modulus_degree
    primes = generate_ntt_primes(list(parameters.coeff_modulus_bits), degree)
    rng = np.random.default_rng(cfg.seed)
    contexts = [get_ntt_context(prime, degree) for prime in primes]
    rows = [rng.integers(0, prime, degree, dtype=np.int64) for prime in primes]
    forward: List[float] = []
    inverse: List[float] = []
    for _ in range(7):
        started = time.perf_counter()
        transformed = [context.forward(row) for context, row in zip(contexts, rows)]
        middle = time.perf_counter()
        for context, row in zip(contexts, transformed):
            context.inverse(row)
        inverse.append(time.perf_counter() - middle)
        forward.append(middle - started)
    return {"ckks.ntt.forward_s": median(forward), "ckks.ntt.inverse_s": median(inverse)}


def _replay_codec(request_message: Dict[str, Any], reply_message: Dict[str, Any], binary: bool) -> Tuple[float, float]:
    """Median seconds to encode the captured request and decode the captured reply."""
    encode: List[float] = []
    decode: List[float] = []
    for _ in range(9):
        if binary:
            started = time.perf_counter()
            wire.encode_frame(wire.FRAME_REQUEST, b"".join(wire.encode_message(request_message)))
            encode.append(time.perf_counter() - started)
            payload = b"".join(wire.encode_message(reply_message))
            started = time.perf_counter()
            envelope, blobs = wire.decode_message(payload)
            messages.finish_response(wire.rehydrate(envelope, blobs))
            decode.append(time.perf_counter() - started)
        else:
            started = time.perf_counter()
            json.dumps(request_message, separators=(",", ":")).encode("utf-8")
            encode.append(time.perf_counter() - started)
            line = json.dumps(reply_message, separators=(",", ":"))
            started = time.perf_counter()
            messages.decode_response(line)
            decode.append(time.perf_counter() - started)
    return median(encode), median(decode)


# -- encrypted closed loops: rotate_sum, relin_poly ------------------------------------
class EncryptedSpec(NamedTuple):
    name: str
    build: Callable[[], Any]
    reference: Callable[[np.ndarray], np.ndarray]
    #: Inputs are uniform in [-amplitude, amplitude].
    amplitude: float
    atol: float
    warmup: int
    slo_seconds: float


ENCRYPTED_SPECS = {
    "rotate_sum": EncryptedSpec(
        "rotate_sum", programs.build_rotate_sum, programs.reference_rotate_sum,
        # The noise of 1024 slots adds up in the sum: measured max error 0.042
        # over 210 requests, independent of the input range, so this workload
        # alone is checked at 0.1 instead of 0.05.
        amplitude=1.0, atol=0.1, warmup=2, slo_seconds=1.0,
    ),
    "relin_poly": EncryptedSpec(
        "relin_poly", programs.build_relin_poly, programs.reference_relin_poly,
        # At |x| <= 1 the 25-bit primes' distance from 2^25 alone costs 0.03-0.05.
        amplitude=0.5, atol=programs.ATOL_CKKS, warmup=1, slo_seconds=2.0,
    ),
}  # fmt: skip


class _EncryptedState(NamedTuple):
    server: ServerProcess
    client: ServingClient
    kit: ClientKit
    compiled: CompiledProgram
    session_bytes: int
    stage_seconds: Dict[str, float]


def _write_program(program, cfg: RunConfig) -> Path:
    path = cfg.out_dir / f"{program.name}.evaproto"
    save(program.graph, path)
    return path


def _start_server(stack: ExitStack, cfg: RunConfig, path: Path, workload: str, **kwargs) -> ServerProcess:
    server = ServerProcess(
        [path], cfg.backend, cfg.src_dir, cfg.out_dir / f"{workload}.server.log", **kwargs
    )
    return stack.enter_context(server)


def _connect(server: ServerProcess, wire_mode: str = "binary") -> ServingClient:
    host, port = server.address
    return ServingClient(host, port, timeout=REQUEST_TIMEOUT_S, wire=wire_mode)


def _new_session(cfg: RunConfig, compiled: CompiledProgram, client: ServingClient, program: str,
                 client_id: str, seed: int) -> Tuple[ClientKit, int, Dict[str, float]]:
    """Keygen, key export and upload for one new client, timed stage by stage."""
    started = time.perf_counter()
    kit = ClientKit(compiled, backend=_backend(cfg, seed), client_id=client_id)
    keygen_done = time.perf_counter()
    sent_before = client.bytes_sent + client.bytes_received
    client.create_session(program, kit)
    session_done = time.perf_counter()
    return kit, client.bytes_sent + client.bytes_received - sent_before, {
        "api.client.keygen_s": keygen_done - started,
        "net.session_create_s": session_done - keygen_done,
    }


def _set_up_encrypted(spec: EncryptedSpec, cfg: RunConfig, rng: np.random.Generator,
                      server_args: Tuple[str, ...] = ()) -> Callable[[ExitStack], _EncryptedState]:
    def set_up(stack: ExitStack) -> _EncryptedState:
        program = spec.build()
        path = _write_program(program, cfg)
        compiled = CompiledProgram.compile(program.graph, options=programs.serving_options())
        server = _start_server(stack, cfg, path, spec.name, extra_args=server_args)
        client = stack.enter_context(_connect(server))
        kit, session_bytes, stages = _new_session(
            cfg, compiled, client, spec.name, f"{spec.name}-client", cfg.seed
        )
        for _ in range(spec.warmup):
            x = spec.amplitude * programs.uniform_inputs(rng, program.vec_size)
            client.submit_encrypted(spec.name, kit, {"x": x})
        return _EncryptedState(server, client, kit, compiled, session_bytes, stages)

    return set_up


def _encrypted_request(state: _EncryptedState, program: str, x: np.ndarray,
                       tracer: Optional[Tracer], request_id: str) -> np.ndarray:
    """One encrypted request; with a tracer, the same calls one by one under spans."""
    client, kit = state.client, state.kit
    if tracer is None:
        return client.submit_encrypted(program, kit, {"x": x})["y"]
    with tracer.span("request", request_id) as root:
        with tracer.span("api.client.encrypt", request_id, root):
            bundle = kit.encrypt_inputs({"x": x})
        with tracer.span("api.bundles.to_wire", request_id, root), raw_blobs():
            bundle_wire = kit.bundle_to_wire(bundle)
        with tracer.span("net.roundtrip", request_id, root) as roundtrip:
            reply = client.submit_bundle(program, bundle_wire, client_id=kit.client_id, trace=True)
        _server_spans(tracer, client.last_trace, request_id, roundtrip,
                      tracer.spans[roundtrip]["seconds"])
        with tracer.span("api.bundles.from_wire", request_id, root):
            encrypted = kit.outputs_from_wire(reply)
        with tracer.span("api.client.decrypt", request_id, root):
            outputs = kit.decrypt_outputs(encrypted)
    return outputs["y"]


def _closed_loop(state: _EncryptedState, spec: EncryptedSpec, cfg: RunConfig, rng: np.random.Generator,
                 seconds: float, tracer: Optional[Tracer], prefix: str) -> Tuple[List[Operation], float]:
    """Send requests back to back for ``seconds``; check every output afterwards."""
    client = state.client
    pending: List[Tuple[float, int, bool, np.ndarray, Optional[np.ndarray]]] = []
    started = time.perf_counter()
    index = 0
    while time.perf_counter() - started < seconds:
        x = spec.amplitude * programs.uniform_inputs(rng, state.compiled.vec_size)
        traced = tracer is not None and index % 2 == 0
        bytes_before = client.bytes_sent + client.bytes_received
        begin = time.perf_counter()
        broken = False
        try:
            y = _encrypted_request(state, spec.name, x, tracer if traced else None, f"{prefix}{index}")
        except OPERATION_ERRORS as exc:
            y = None
            # After a timeout or reset the stream may be half-read: stop here
            # with the failure counted instead of reading garbage.
            broken = isinstance(exc, (OSError, TransportError))
        elapsed = time.perf_counter() - begin
        pending.append((elapsed, client.bytes_sent + client.bytes_received - bytes_before, traced, x, y))
        index += 1
        if broken:
            break
    duration = time.perf_counter() - started
    operations = [
        Operation(elapsed, nbytes, y is not None and _close_enough(y, spec.reference(x), spec.atol), traced)
        for elapsed, nbytes, traced, x, y in pending
    ]
    return operations, duration


def run_encrypted(name: str, cfg: RunConfig) -> WorkloadResult:
    spec = ENCRYPTED_SPECS[name]
    rng = np.random.default_rng(cfg.seed)
    result = WorkloadResult(name, warmup=spec.warmup)
    tracer = Tracer() if cfg.traced else None
    state, stack, setup_seconds = _timed_setups(cfg, name, _set_up_encrypted(spec, cfg, rng))
    with stack:
        # The router detour (traced rotate_sum only) gets a third of the time.
        router = cfg.traced and name == "rotate_sum"
        loop_seconds = cfg.seconds * (2 / 3 if router else 1.0)
        before = state.client.metrics() if cfg.traced else {}
        _drain_client_ops(state.kit)
        cpu_before = state.server.cpu_seconds()
        operations, duration = _closed_loop(state, spec, cfg, rng, loop_seconds, tracer, "r")
        cpu_seconds = state.server.cpu_seconds() - cpu_before
        _finish(
            result, operations, duration=duration, setup_seconds=setup_seconds,
            slo_seconds=spec.slo_seconds,
            peak_rss_mb=state.server.peak_rss_mb(), sut_cpu_seconds=cpu_seconds,
        )  # fmt: skip
        if tracer is not None:
            _encrypted_layers(result, state, spec, cfg, tracer, operations, before, setup_seconds)
    if router:
        _router_detour(result, spec, cfg, rng, tracer, cfg.seconds / 3)
    if tracer is not None:
        result.spans = tracer.spans
    return result


def _encrypted_layers(result: WorkloadResult, state: _EncryptedState, spec: EncryptedSpec, cfg: RunConfig,
                      tracer: Tracer, operations: List[Operation], before: Dict[str, Any],
                      setup_seconds: List[float]) -> None:
    after = state.client.metrics()
    metrics = result.metrics
    metrics.update(_span_medians(tracer))
    client_ops = _drain_client_ops(state.kit)
    metrics.update(_ckks_layer_metrics(before, after, client_ops, len(operations)))
    metrics.update(_ntt_kernel_metrics(state.compiled.parameters, cfg))
    metrics.update(state.stage_seconds)

    # Key export and the codec, replayed outside the request loop.
    started = time.perf_counter()
    with raw_blobs():
        keys = state.kit.export_evaluation_keys()
    metrics["api.client.export_keys_s"] = time.perf_counter() - started
    _, blobs = wire.split_message({"evaluation_keys": keys})
    upload = sum(len(blob) for blob in blobs)
    metrics["wire.session_upload_bytes"] = float(state.session_bytes)
    metrics["wire.session_chunks"] = float(
        sum(len(list(wire.iter_chunks(blob))) for blob in blobs)
        if upload > wire.STREAM_THRESHOLD_BYTES
        else 0
    )
    x = spec.amplitude * programs.uniform_inputs(np.random.default_rng(cfg.seed), state.compiled.vec_size)
    with raw_blobs():
        bundle_wire = state.kit.bundle_to_wire(state.kit.encrypt_inputs({"x": x}))
        request_message = messages.build_request(
            "submit", program=spec.name, bundle=bundle_wire, client_id=state.kit.client_id
        )
    sent_before, received_before = state.client.bytes_sent, state.client.bytes_received
    reply = state.client.submit_bundle(spec.name, bundle_wire, client_id=state.kit.client_id)
    metrics["wire.request_bytes"] = float(state.client.bytes_sent - sent_before)
    metrics["wire.reply_bytes"] = float(state.client.bytes_received - received_before)
    reply_message = {"ok": True, "stats": state.client.last_stats, "encrypted_outputs": reply}
    metrics["wire.encode_s"], metrics["wire.decode_s"] = _replay_codec(request_message, reply_message, True)

    metrics["budget.unattributed_frac"] = unattributed_fraction(tracer)
    _bookkeeping(metrics, operations, setup_seconds)


def _router_detour(result: WorkloadResult, spec: EncryptedSpec, cfg: RunConfig, rng: np.random.Generator,
                   tracer: Tracer, seconds: float) -> None:
    """``rotate_sum`` again through a one-shard cluster router: the extra hop's cost."""
    config = cfg.out_dir / "one_shard.toml"
    config.write_text("[cluster]\nshards = 1\n", encoding="utf-8")
    direct = [record["seconds"] for record in tracer.spans if record["name"] == "request"]
    mark = len(tracer.spans)
    with ExitStack() as stack:
        state = _set_up_encrypted(spec, cfg, rng, ("--cluster-config", str(config)))(stack)
        operations, _ = _closed_loop(state, spec, cfg, rng, seconds, tracer, "router")
    routed = [
        record["seconds"] for record in tracer.spans[mark:] if record["name"] == "request"
    ]
    forward = [
        record["seconds"] for record in tracer.spans[mark:] if record["name"] == "cluster.router_forward"
    ]
    result.attempted += len(operations)
    result.failed += sum(1 for op in operations if not op.ok)
    result.notes["router_requests"] = len(operations)
    if routed and direct:
        result.metrics["cluster.router_hop_s"] = median(routed) - median(direct)
    if forward:
        result.metrics["cluster.router_forward_s"] = median(forward)


# -- session_churn ---------------------------------------------------------------------
SESSION_SLO_SECONDS = 4.0
#: The server keeps every session (about 9 MB each), so its peak memory grows
#: with the clients served.  It is read after this many, not at the end of the
#: time-bounded loop, or faster code would show as more memory.
SESSION_RSS_AFTER_CLIENTS = 10


def run_session_churn(cfg: RunConfig) -> WorkloadResult:
    """Brand-new clients, one after another: keygen, key upload, first request."""
    spec = ENCRYPTED_SPECS["rotate_sum"]
    rng = np.random.default_rng(cfg.seed)
    result = WorkloadResult("session_churn", warmup=1)
    tracer = Tracer() if cfg.traced else None
    counter = iter(range(1_000_000))

    def one_client(server: ServerProcess, compiled: CompiledProgram, traced: bool):
        """-> (seconds, wire bytes, input, output or None, stage seconds)."""
        index = next(counter)
        x = programs.uniform_inputs(rng, compiled.vec_size)
        begin = time.perf_counter()
        y = None
        stages: Dict[str, float] = {}
        nbytes = 0
        try:
            with _connect(server) as client:
                kit, session_bytes, stages = _new_session(
                    cfg, compiled, client, spec.name, f"churn-{cfg.seed}-{index}", cfg.seed + index
                )
                stages["wire.session_upload_bytes"] = float(session_bytes)
                first = time.perf_counter()
                state = _EncryptedState(server, client, kit, compiled, session_bytes, stages)
                y = _encrypted_request(state, spec.name, x, tracer if traced else None, f"s{index}")
                stages["net.first_request_s"] = time.perf_counter() - first
                nbytes = client.bytes_sent + client.bytes_received
        except OPERATION_ERRORS:
            y = None
        return time.perf_counter() - begin, nbytes, x, y, stages

    def set_up(stack: ExitStack):
        program = spec.build()
        path = _write_program(program, cfg)
        compiled = CompiledProgram.compile(program.graph, options=programs.serving_options())
        server = _start_server(stack, cfg, path, "session_churn", session_dir=True)
        one_client(server, compiled, False)
        return server, compiled

    (server, compiled), stack, setup_seconds = _timed_setups(cfg, result.workload, set_up)
    with stack:
        with _connect(server) as probe:
            before = probe.metrics() if cfg.traced else {}
        cpu_before = server.cpu_seconds()
        pending = []
        peak_rss_mb = 0.0
        started = time.perf_counter()
        while time.perf_counter() - started < cfg.seconds:
            traced = tracer is not None and len(pending) % 2 == 0
            pending.append((traced, *one_client(server, compiled, traced)))
            if len(pending) <= SESSION_RSS_AFTER_CLIENTS:
                peak_rss_mb = server.peak_rss_mb()
        duration = time.perf_counter() - started
        cpu_seconds = server.cpu_seconds() - cpu_before
        operations = [
            Operation(seconds, nbytes, y is not None and _close_enough(y, spec.reference(x), spec.atol), traced)
            for traced, seconds, nbytes, x, y, _ in pending
        ]
        _finish(
            result, operations, duration=duration, setup_seconds=setup_seconds,
            slo_seconds=SESSION_SLO_SECONDS,
            peak_rss_mb=peak_rss_mb, sut_cpu_seconds=cpu_seconds,
        )  # fmt: skip
        if tracer is not None:
            stage_lists: Dict[str, List[float]] = {}
            for *_, stages in pending:
                for key, value in stages.items():
                    stage_lists.setdefault(key, []).append(value)
            result.metrics.update({key: median(values) for key, values in stage_lists.items()})
            result.metrics.update(_span_medians(tracer))
            with _connect(server) as probe:
                after = probe.metrics()
            result.metrics.update(_ckks_layer_metrics(before, after, {}, len(operations)))
            _bookkeeping(result.metrics, operations, setup_seconds)
            result.spans = tracer.spans
    return result


# -- batch_pairs -------------------------------------------------------------------------
PAIR_RATE = 4.0
PAIR_SLO_SECONDS = 0.5
PAIR_WARMUP = 4
PAIR_CLIENT_ID = "pairs"


def run_batch_pairs(cfg: RunConfig) -> WorkloadResult:
    """Paced open loop: a JSON and a binary connection, due at the same instants."""
    result = WorkloadResult("batch_pairs", warmup=2 * PAIR_WARMUP)
    tracer = Tracer() if cfg.traced else None
    rng = np.random.default_rng(cfg.seed)
    wires = ("json", "binary")

    def submit(client: ServingClient, x: np.ndarray, trace: bool = False):
        return client.submit(
            "batch_poly", {"x": x}, client_id=PAIR_CLIENT_ID,
            output_size=programs.BATCH_POLY_WIDTH, trace=trace,
        )["y"]  # fmt: skip

    def in_pairs(clients, job: Callable[[int, ServingClient], None]) -> None:
        with ThreadPoolExecutor(max_workers=len(clients)) as pool:
            futures = [pool.submit(job, which, client) for which, client in enumerate(clients)]
        for future in futures:
            future.result()  # re-raises what a thread swallowed

    def set_up(stack: ExitStack):
        path = _write_program(programs.build_batch_poly(), cfg)
        # CLI defaults for --max-batch and --batch-window; one worker so the
        # two requests of a pair can only be served together or in turn.
        server = _start_server(stack, cfg, path, "batch_pairs", extra_args=("--workers", "1"))
        clients = [stack.enter_context(_connect(server, mode)) for mode in wires]
        warm = [programs.uniform_inputs(rng, programs.BATCH_POLY_WIDTH) for _ in range(PAIR_WARMUP)]
        # First alone (solo path), then together (batch-of-2 path).
        submit(clients[0], warm[0])
        in_pairs(clients, lambda _i, client: [submit(client, x) for x in warm])
        return server, clients

    (server, clients), stack, setup_seconds = _timed_setups(cfg, result.workload, set_up)
    with stack:
        # The compile zoo (traced run only) gets a third of the time.
        schedule = paced_schedule(cfg.seed, cfg.seconds * (2 / 3 if cfg.traced else 1.0), PAIR_RATE)
        inputs = [
            [programs.uniform_inputs(rng, programs.BATCH_POLY_WIDTH) for _ in schedule] for _ in wires
        ]
        records: List[List[Tuple]] = [[], []]
        # Which pairs are traced: a seeded coin, not every other pair, which on
        # a fixed 0.25 s grid would alias with anything periodic in the server.
        coin = np.random.default_rng(cfg.seed + 1)
        traced_pairs = [
            tracer is not None and (index == 0 or (index > 1 and coin.random() < 0.5))
            for index in range(len(schedule))
        ]
        before = clients[1].metrics() if cfg.traced else {}
        cpu_before = server.cpu_seconds()
        origin = time.perf_counter() + 0.05

        def drive(which: int, client: ServingClient) -> None:
            for index, offset in enumerate(schedule):
                due = origin + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                traced = traced_pairs[index]
                bytes_before = client.bytes_sent + client.bytes_received
                sent = time.perf_counter()
                try:
                    y = submit(client, inputs[which][index], trace=traced)
                except OPERATION_ERRORS:
                    y = None
                done = time.perf_counter()
                records[which].append(
                    (due, sent, done, client.bytes_sent + client.bytes_received - bytes_before,
                     traced, y, dict(client.last_stats) if y is not None else {},
                     client.last_trace if traced and y is not None else None)
                )  # fmt: skip
                if y is None:
                    return  # the connection is unusable; the rest of its schedule fails

        in_pairs(clients, drive)
        duration = time.perf_counter() - origin
        cpu_seconds = server.cpu_seconds() - cpu_before
        operations: List[Operation] = []
        late: List[float] = []
        batch_sizes: List[float] = []
        for which, mode in enumerate(wires):
            for index, (due, sent, done, nbytes, traced, y, stats, trace) in enumerate(records[which]):
                ok = y is not None and _close_enough(
                    y, programs.reference_batch_poly(inputs[which][index]), programs.ATOL_CKKS
                )
                operations.append(Operation(done - due, nbytes, ok, traced, mode))
                late.append(sent - due)
                if stats:
                    batch_sizes.append(float(stats.get("batch_size", 1)))
                if tracer is not None and traced and ok:
                    request_id = f"{mode}{index}"
                    root = tracer.add("request", done - due, request_id, None, wire=mode)
                    tracer.add("gen.late", sent - due, request_id, root)
                    roundtrip = tracer.add("net.roundtrip", done - sent, request_id, root, wire=mode)
                    _server_spans(tracer, trace, request_id, roundtrip, done - sent)
            # Requests never sent because the connection died.
            for _ in range(len(schedule) - len(records[which])):
                operations.append(Operation(0.0, 0, False, False, mode))
        # Bytes per request, averaged over the two codecs (a plain median would
        # flip between the JSON and the binary size).
        mode_bytes = {
            mode: median([op.wire_bytes for op in operations
                          if op.kind == mode and op.ok and not op.traced] or [0])
            for mode in wires
        }
        pair_bytes = sum(mode_bytes.values()) / len(wires)
        _finish(
            result, operations, duration=duration, setup_seconds=setup_seconds,
            slo_seconds=PAIR_SLO_SECONDS, op_bytes=pair_bytes,
            peak_rss_mb=server.peak_rss_mb(), sut_cpu_seconds=cpu_seconds,
        )  # fmt: skip
        result.notes["gen_late_p50_s"] = median(late)
        result.notes["gen_late_max_s"] = max(late)
        result.notes["batch_size_mean"] = sum(batch_sizes) / len(batch_sizes)
        if tracer is not None:
            _batch_layers(result, cfg, tracer, clients, operations, inputs[0][0], before, late,
                          batch_sizes, mode_bytes, setup_seconds)
    if tracer is not None:
        _zoo_probe(result, cfg, tracer, cfg.seconds / 3)
        result.spans = tracer.spans
    return result


def _batch_layers(result, cfg, tracer, clients, operations, x, before, late, batch_sizes, mode_bytes,
                  setup_seconds) -> None:
    metrics = result.metrics
    after = clients[1].metrics()
    metrics.update(_span_medians(tracer))
    for mode in ("json", "binary"):
        own = {record["request"] for record in tracer.spans if record.get("wire") == mode}
        grouped = tracer.seconds_by_name(own)
        metrics[f"net.roundtrip_s.{mode}"] = median(grouped["net.roundtrip"])
        metrics[f"net.transport_residual_s.{mode}"] = median(grouped["net.transport_residual"])
    metrics.update(_ckks_layer_metrics(before, after, {}, len(operations)))
    metrics.setdefault("serving.batch.shared_execute_s", 0.0)
    metrics["serving.batch.size_mean"] = sum(batch_sizes) / len(batch_sizes)
    metrics["serving.batch.count"] = _gauge(after, "serving.engine.batches") - _gauge(before, "serving.engine.batches")
    compiled = CompiledProgram.compile(programs.build_batch_poly().graph, options=programs.serving_options())
    metrics.update(_ntt_kernel_metrics(compiled.parameters, cfg))

    request_message = messages.build_request(
        "submit", program="batch_poly", inputs={"x": x}, client_id=PAIR_CLIENT_ID,
        output_size=programs.BATCH_POLY_WIDTH,
    )  # fmt: skip
    reply_message = messages.build_response(
        outputs={"y": programs.reference_batch_poly(x)}, stats=dict(clients[0].last_stats)
    )
    metrics["wire.encode_s"], metrics["wire.decode_s"] = _replay_codec(request_message, reply_message, False)
    metrics["wire.request_bytes"] = float(
        len(messages.encode_request("submit", program="batch_poly", inputs={"x": x},
                                    client_id=PAIR_CLIENT_ID, output_size=programs.BATCH_POLY_WIDTH))
    )  # fmt: skip
    metrics["wire.reply_bytes"] = mode_bytes["json"] - metrics["wire.request_bytes"]
    metrics["wire.bytes.json"] = mode_bytes["json"]
    metrics["wire.bytes.binary"] = mode_bytes["binary"]

    metrics["budget.unattributed_frac"] = unattributed_fraction(tracer)
    metrics["gen.late_p50_s"] = median(late)
    metrics["gen.late_max_s"] = max(late)
    _bookkeeping(metrics, operations, setup_seconds)


# -- compile zoo: a layer-only probe in the traced run of batch_pairs ------------------------
def _zoo_probe(result: WorkloadResult, cfg: RunConfig, tracer: Tracer, seconds: float) -> None:
    """Sweeps over the zoo through the compiler, each program checked on the mock backend.

    Not a workload: compiling is pure Python, and on this host the
    interpreter's speed changes by up to a factor of two for a minute at a
    time, which no statistic inside a run takes out (ten runs of the same code
    spread by 0.26-0.31 of their median whether a run reported the median
    sweep, the fastest sweep or the sum of each program's fastest compile).
    The numbers are kept as per-layer metrics, where nothing is bounded.
    """
    zoo = programs.compile_zoo()
    options = CompilerOptions(policy="eva")
    build_seconds: Dict[str, float] = {"frontend.build": 0.0, "nn.chet.build_program": 0.0}
    sources = []
    for entry in zoo:
        begin = time.perf_counter()
        sources.append(entry.build())
        build_seconds[entry.build_layer] += time.perf_counter() - begin

    def sweep(request_id: Optional[str]) -> Tuple[Dict[str, float], Dict[str, Any]]:
        """Compile every program once -> ({name: seconds}, {name: result})."""
        per_program: Dict[str, float] = {}
        compiled: Dict[str, Any] = {}
        for entry, (source, _context) in zip(zoo, sources):
            begin = time.perf_counter()
            compilation = EvaCompiler(options).compile(source.graph)
            per_program[entry.name] = time.perf_counter() - begin
            compiled[entry.name] = compilation
            if request_id is not None:
                root = tracer.add("compile", per_program[entry.name], f"{request_id}:{entry.name}", None)
                for report in compilation.pass_reports:
                    tracer.add(f"core.compiler.pass.{report.name}", report.seconds,
                               f"{request_id}:{entry.name}", root, rewrites=report.rewrites)
        return per_program, compiled

    sweep(None)  # warm-up
    # The harness's own long-lived objects (sources, weights, the spans of the
    # paced phase) leave the collector's sight, so that a collection inside a
    # compile walks the compiler's objects only.
    gc.collect()
    gc.freeze()
    sweeps: List[Dict[str, float]] = []
    compiled: Dict[str, Any] = {}
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or len(sweeps) < 2:
        per_program, compiled = sweep(f"sweep{len(sweeps)}")
        sweeps.append(per_program)
    gc.unfreeze()

    # Checking: each compiled program runs once on the mock backend against the
    # reference made from the *source* network/program.
    from repro.backend import MockBackend

    rng = np.random.default_rng(cfg.seed)
    wrong: List[str] = []
    mock_seconds = 0.0
    for entry, (_source, context) in zip(zoo, sources):
        inputs, expected = entry.case(context, rng)
        begin = time.perf_counter()
        outputs = Executor(compiled[entry.name], MockBackend(seed=cfg.seed)).execute(inputs).outputs
        mock_seconds += time.perf_counter() - begin
        if not all(_close_enough(outputs[key], value, programs.ATOL_MOCK_CHECK)
                   for key, value in expected.items()):
            wrong.append(entry.name)
    result.attempted += len(zoo)
    result.failed += len(wrong)
    result.notes.update({"zoo_verifier": "mock", "zoo_wrong_programs": wrong, "zoo_sweeps": len(sweeps)})

    metrics = result.metrics
    metrics["frontend.build_s"] = build_seconds["frontend.build"]
    metrics["nn.chet.build_program_s"] = build_seconds["nn.chet.build_program"]
    for entry in zoo:
        metrics[f"core.compiler.compile_s.{entry.name}"] = median([per[entry.name] for per in sweeps])
    metrics["compile_geomean_s"] = geometric_mean(
        [metrics[f"core.compiler.compile_s.{entry.name}"] for entry in zoo]
    )
    metrics["compile_sweep_s"] = median([sum(per.values()) for per in sweeps])
    # Per pass: seconds and rewrites summed over the zoo, median over sweeps.
    pass_seconds: Dict[str, Dict[str, float]] = {}
    pass_rewrites: Dict[str, Dict[str, float]] = {}
    for record in tracer.spans:
        if record["name"].startswith("core.compiler.pass."):
            name = record["name"][len("core.compiler.pass."):]
            sweep_id = record["request"].split(":", 1)[0]
            pass_seconds.setdefault(name, {}).setdefault(sweep_id, 0.0)
            pass_seconds[name][sweep_id] += record["seconds"]
            pass_rewrites.setdefault(name, {}).setdefault(sweep_id, 0.0)
            pass_rewrites[name][sweep_id] += record["rewrites"]
    inside = 0.0
    for name in pass_seconds:
        metrics[f"core.compiler.pass.{name}.seconds"] = median(list(pass_seconds[name].values()))
        metrics[f"core.compiler.pass.{name}.rewrites"] = median(list(pass_rewrites[name].values()))
        inside += metrics[f"core.compiler.pass.{name}.seconds"]
    metrics["core.compiler.outside_passes_s"] = metrics["compile_sweep_s"] - inside
    # The compiler's other stages, called again on what it produced.
    timers = {
        "core.compiler.program_signature_s": lambda source, done: program_signature(source.graph, options),
        "core.analysis.validate_s": lambda source, done: validate(
            done.program, max_rescale_bits=options.max_rescale_bits
        ),
        "core.analysis.select_rotation_steps_s": lambda source, done: select_rotation_steps(done.program),
        "core.analysis.select_parameters_s": lambda source, done: select_parameters(
            done.program, desired_output_scales=done.output_scales,
            max_rescale_bits=options.max_rescale_bits, security_level=options.security_level,
            rotation_steps=done.rotation_steps,
        ),
    }  # fmt: skip
    for metric, call in timers.items():
        repeats: List[float] = []
        for _ in range(3):
            begin = time.perf_counter()
            for entry, (source, _context) in zip(zoo, sources):
                call(source, compiled[entry.name])
            repeats.append(time.perf_counter() - begin)
        metrics[metric] = median(repeats)
    metrics["backend.mock.execute_s"] = mock_seconds
    metrics["compiled.terms"] = float(sum(len(done.program) for done in compiled.values()))
    metrics["compiled.log_q_bits"] = float(sum(sum(done.coeff_modulus_bits) for done in compiled.values()))
    metrics["compiled.chain_length"] = float(sum(len(done.coeff_modulus_bits) for done in compiled.values()))
    metrics["compiled.galois_keys"] = float(sum(len(done.rotation_steps) for done in compiled.values()))
    # Closure row of the compiler: sweep time that neither a pass report nor a
    # re-measured stage (signature, validate, parameter and rotation-step
    # selection) explains.
    metrics["core.compiler.unattributed_frac"] = (
        metrics["core.compiler.outside_passes_s"] - sum(metrics[metric] for metric in timers)
    ) / metrics["compile_sweep_s"]
    # The harness's own high-water mark, read after the sweeps: the compiler's
    # peak when that is above the paced phase's (``client_peak_rss_mb``).
    metrics["core.compiler.peak_rss_mb"] = own_peak_rss_mb()


WORKLOADS: Dict[str, Callable[[RunConfig], WorkloadResult]] = {
    "rotate_sum": lambda cfg: run_encrypted("rotate_sum", cfg),
    "relin_poly": lambda cfg: run_encrypted("relin_poly", cfg),
    "session_churn": run_session_churn,
    "batch_pairs": run_batch_pairs,
}


def run_workload(name: str, cfg: RunConfig) -> WorkloadResult:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](cfg)
