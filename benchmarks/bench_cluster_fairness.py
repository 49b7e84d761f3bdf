"""Cluster fairness under a greedy client, and artifact-cache cold start.

Two control-plane claims of the serving layer, measured end to end:

**Fairness.**  One *greedy* client floods a 2-shard cluster as fast as the
wire allows while one *light* client keeps a slow, paced request stream —
both deliberately chosen to consistent-hash to the *same* shard, so they
truly contend.  With per-client quotas at the router (token bucket + 429s
with ``retry_after``) and weighted fair dequeue at the shard's job engine,
the greedy client is throttled and interleaved instead of monopolizing the
queue: the light client's p95 latency under contention must stay within
``MAX_P95_RATIO`` (2x) of its solo p95.  Without admission control the light
client would wait behind the greedy client's entire backlog.

**Artifact-cache cold start.**  The first shard to compile a program
publishes the finished compilation to the shared
:class:`~repro.serving.ArtifactCache`; a sibling (or restarted) shard *loads*
it instead of recompiling.  The benchmark measures the cold program
resolution on a second shard — load vs the first shard's recorded compile —
and asserts **>= 2x** (typically ~5-8x for the Sobel kernel), plus reports
the end-to-end first-request latency of both shards.

Runs standalone (``python benchmarks/bench_cluster_fairness.py``) for CI,
writing ``bench-out/cluster_fairness.json`` for artifact upload, or under
pytest-benchmark with the rest of the suite.
"""

from __future__ import annotations

import gc
import json
import sys
import tempfile
import threading
import time

import numpy as np

from repro.api import execute_reference
from repro.apps.sobel import build_sobel_program, random_image
from repro.backend import MockBackend
from repro.errors import QuotaExceededError
from repro.frontend import EvaProgram, input_encrypted, output
from repro.serving import (
    ArtifactCache,
    BackendSpec,
    ConsistentHashRing,
    EvaCluster,
    EvaServer,
    FairnessPolicy,
    ProgramRegistry,
)

try:
    from conftest import print_table
except ImportError:  # standalone invocation without the benchmarks conftest
    def print_table(title, header, rows):
        print(f"\n=== {title} ===")
        for row in [header] + rows:
            print("  ".join(str(cell).ljust(18) for cell in row))

#: Shards in the fairness experiment.
SHARDS = 2
#: Simulated hardware latency per homomorphic op (seconds).
OP_LATENCY = 0.002
#: Per-client sustained rate quota (requests/second) and burst.
QUOTA_RPS = 10.0
QUOTA_BURST = 4.0
#: Per-client in-flight cap.
MAX_INFLIGHT = 4
#: The light client's paced request stream.
LIGHT_REQUESTS = 20
LIGHT_INTERVAL = 0.15
#: Seconds the greedy flood runs alongside the light stream.
GREEDY_SECONDS = LIGHT_REQUESTS * LIGHT_INTERVAL
#: Acceptance bar: light-client p95 under contention vs solo.
MAX_P95_RATIO = 2.0
#: Acceptance bar: second-shard program resolution vs first-shard compile.
MIN_COLDSTART_SPEEDUP = 2.0
#: Reference-comparison tolerance (mock-exact backend).
ATOL = 1e-6


def build_program() -> EvaProgram:
    program = EvaProgram("poly", vec_size=64, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", (x * x + x * 0.5) * (x * x - 1.0) + x, 25)
    return program


def colocated_clients() -> tuple:
    """A (greedy, light) client pair that hashes to the same shard.

    Fairness only matters under contention; the deterministic ring makes the
    co-location reproducible everywhere.
    """
    ring = ConsistentHashRing(tuple(range(SHARDS)))
    by_home = {}
    candidate = 0
    while True:
        client = f"fair-client-{candidate}"
        candidate += 1
        home = ring.route(client)
        bucket = by_home.setdefault(home, [])
        bucket.append(client)
        if len(bucket) == 2:
            return bucket[0], bucket[1]


def percentile(samples, q) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def light_stream(cluster, client_id, inputs, expected) -> list:
    """The light client's paced stream; returns per-request seconds."""
    latencies = []
    for _ in range(LIGHT_REQUESTS):
        start = time.perf_counter()
        outputs = cluster.submit("poly", {"x": inputs}, client_id=client_id)
        latencies.append(time.perf_counter() - start)
        np.testing.assert_allclose(outputs["y"][: len(inputs)], expected, atol=ATOL)
        time.sleep(LIGHT_INTERVAL)
    return latencies


def run_fairness() -> dict:
    program = build_program()
    inputs = [0.1, 0.4, -0.3, 0.9]
    expected = execute_reference(program.graph, {"x": inputs})["y"][: len(inputs)]
    greedy_id, light_id = colocated_clients()

    cluster = EvaCluster(
        shards=SHARDS,
        backend=BackendSpec("mock-exact", seed=11, op_latency=OP_LATENCY),
        batch_window=0.0,
        fairness=FairnessPolicy(
            quota_rps=QUOTA_RPS, burst=QUOTA_BURST, max_inflight=MAX_INFLIGHT
        ),
    )
    cluster.register("poly", program)
    cluster.start()
    try:
        # Warm both clients (compile + keygen are one-time costs).
        for client_id in (greedy_id, light_id):
            cluster.submit("poly", {"x": inputs}, client_id=client_id)
        time.sleep(1.0)  # refill the token buckets spent warming

        solo = light_stream(cluster, light_id, inputs, expected)

        stop = threading.Event()
        throttled = [0]
        submitted = [0]

        def greedy_flood() -> None:
            while not stop.is_set():
                try:
                    cluster.submit("poly", {"x": inputs}, client_id=greedy_id)
                    submitted[0] += 1
                except QuotaExceededError as exc:
                    throttled[0] += 1
                    # An obedient-but-relentless client: honor retry_after,
                    # then hammer again.
                    stop.wait(min(exc.retry_after, 0.05))

        flooder = threading.Thread(target=greedy_flood, daemon=True)
        flooder.start()
        try:
            contended = light_stream(cluster, light_id, inputs, expected)
        finally:
            stop.set()
            flooder.join(timeout=30)
    finally:
        cluster.close()

    p95_solo = percentile(solo, 95)
    p95_contended = percentile(contended, 95)
    ratio = p95_contended / max(p95_solo, 1e-9)
    print_table(
        f"Cluster fairness: greedy flood vs paced light client "
        f"(quota {QUOTA_RPS:g} rps, burst {QUOTA_BURST:g}, "
        f"inflight cap {MAX_INFLIGHT})",
        ["Light client", "p50 (ms)", "p95 (ms)"],
        [
            ["solo", f"{percentile(solo, 50) * 1e3:.1f}", f"{p95_solo * 1e3:.1f}"],
            [
                "vs greedy",
                f"{percentile(contended, 50) * 1e3:.1f}",
                f"{p95_contended * 1e3:.1f}",
            ],
        ],
    )
    print(
        f"  greedy: {submitted[0]} served, {throttled[0]} throttled "
        f"(p95 ratio {ratio:.2f}x, bar {MAX_P95_RATIO:.1f}x)"
    )

    assert throttled[0] > 0, (
        "the greedy client was never throttled — quotas are not engaging"
    )
    assert ratio <= MAX_P95_RATIO, (
        f"light client p95 degraded {ratio:.2f}x under a greedy flood "
        f"(allowed {MAX_P95_RATIO:.1f}x): fairness is not holding"
    )
    return {
        "p95_solo_ms": p95_solo * 1e3,
        "p95_contended_ms": p95_contended * 1e3,
        "ratio": ratio,
        "max_ratio": MAX_P95_RATIO,
        "greedy_served": submitted[0],
        "greedy_throttled": throttled[0],
    }


def run_coldstart() -> dict:
    program = build_sobel_program(8, scale=30, vec_size=1024)
    graph = getattr(program, "graph", program)
    image = random_image(8, seed=0).reshape(-1)
    # The fairness half leaves a full collection owed (~15 ms over its heap);
    # pay it now, or it lands inside one of the single-sample timings below
    # and decides the comparison of two ~10 ms requests.
    gc.collect()
    with tempfile.TemporaryDirectory() as artifact_dir:
        # Shard 1: compiles from source and publishes the artifact.
        first = EvaServer(
            backend=MockBackend(seed=1),
            artifact_cache=ArtifactCache(artifact_dir),
            batch_window=0.0,
        )
        first.register("sobel", program)
        start = time.perf_counter()
        first.request("sobel", {"image": image})
        first_request = time.perf_counter() - start
        first.close()

        # The compile the first shard actually paid, as recorded in the
        # published artifact.
        cache = ArtifactCache(artifact_dir)
        (record,) = cache.records()
        compile_seconds = float(record["compile_seconds"])

        # Second shard's program resolution: a fresh registry over the shared
        # directory loads instead of recompiling.
        registry = ProgramRegistry(artifacts=ArtifactCache(artifact_dir))
        start = time.perf_counter()
        registry.get_or_compile(graph)
        load_seconds = time.perf_counter() - start

        # ... and end to end: a second server's first request over the warm
        # cache (still pays keygen + one evaluation, like the first did).
        second = EvaServer(
            backend=MockBackend(seed=2),
            artifact_cache=ArtifactCache(artifact_dir),
            batch_window=0.0,
        )
        second.register("sobel", program)
        start = time.perf_counter()
        second.request("sobel", {"image": image})
        second_request = time.perf_counter() - start
        second.close()

    speedup = compile_seconds / max(load_seconds, 1e-9)
    print_table(
        "Artifact-cache cold start: Sobel on a second shard",
        ["Stage", "Shard 1 (ms)", "Shard 2 (ms)", "Speedup"],
        [
            [
                "program resolution",
                f"{compile_seconds * 1e3:.2f}",
                f"{load_seconds * 1e3:.2f}",
                f"{speedup:.1f}x",
            ],
            [
                "first request e2e",
                f"{first_request * 1e3:.2f}",
                f"{second_request * 1e3:.2f}",
                f"{first_request / max(second_request, 1e-9):.1f}x",
            ],
        ],
    )

    assert speedup >= MIN_COLDSTART_SPEEDUP, (
        f"loading the shared artifact was only {speedup:.2f}x faster than "
        f"recompiling (expected >= {MIN_COLDSTART_SPEEDUP:.1f}x)"
    )
    assert second_request <= first_request, (
        "the warm-cache shard's first request was slower than the cold "
        f"shard's ({second_request:.3f}s vs {first_request:.3f}s)"
    )
    return {
        "compile_ms": compile_seconds * 1e3,
        "load_ms": load_seconds * 1e3,
        "ratio": speedup,
        "min_ratio": MIN_COLDSTART_SPEEDUP,
        "first_request_cold_ms": first_request * 1e3,
        "first_request_warm_ms": second_request * 1e3,
    }


def run(benchmark=None) -> dict:
    fairness = run_fairness()
    coldstart = run_coldstart()
    payload = {
        "benchmark": "cluster_fairness",
        "op_latency_seconds": OP_LATENCY,
        "quota_rps": QUOTA_RPS,
        "fairness": fairness,
        "coldstart": coldstart,
    }
    print(json.dumps(payload))
    if benchmark is not None:
        # Benchmark target: one paced light request under no contention.
        program = build_program()
        server = EvaServer(backend=MockBackend(seed=11), batch_window=0.0)
        server.register("poly", program)
        server.request("poly", {"x": [0.1]})
        benchmark.pedantic(
            lambda: server.request("poly", {"x": [0.1]}), rounds=3, iterations=1
        )
        server.close()
    else:
        import os

        os.makedirs("bench-out", exist_ok=True)
        with open("bench-out/cluster_fairness.json", "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
    return payload


def test_cluster_fairness(benchmark):
    run(benchmark)


if __name__ == "__main__":
    result = run(None)
    print(
        f"cluster fairness ok: light p95 {result['fairness']['ratio']:.2f}x <= "
        f"{MAX_P95_RATIO:.1f}x, artifact cold start "
        f"{result['coldstart']['ratio']:.1f}x >= {MIN_COLDSTART_SPEEDUP:.1f}x"
    )
    sys.exit(0)
