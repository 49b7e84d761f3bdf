"""SLO attainment under mixed load: tight deadlines vs relaxed throughput.

The DiLaServe-style claim of the SLO scheduler, measured end to end on one
server: honoring *tight* deadlines must not cost *relaxed* clients their
batching amortization, and the tight clients must actually make their
deadlines.

**Baseline.**  A flood of requests carrying no SLO fields at all — the
pre-SLO behavior, where every request lingers the full batch window and
amortizes maximally.  Its throughput is the yardstick.

**Mixed phase.**  The same flood marked ``relaxed`` runs alongside a paced
stream of ``tight`` requests carrying a real ``deadline_ms``.  Tight
requests get a zero linger budget (solo execution, no waiting for lanes);
relaxed ones keep the full window.  Two headline metrics come out:

* ``tight.attainment`` — the fraction of tight requests finishing inside
  their deadline (admission rejections count as misses).  Gate: >= 0.95.
* ``relaxed.throughput_ratio`` — relaxed flood throughput over the no-SLO
  baseline flood.  Gate: >= 0.8x (the tight stream steals some worker time,
  but batching must survive).

Runs standalone (``python benchmarks/bench_slo_attainment.py``) for CI,
writing ``bench-out/slo_attainment.json`` for artifact upload, or under
pytest-benchmark with the rest of the suite.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import numpy as np

from repro.api import execute_reference
from repro.errors import DeadlineInfeasibleError
from repro.frontend import EvaProgram, input_encrypted, output
from repro.serving import EvaServer, Telemetry
from repro.serving.cluster import BackendSpec

try:
    from conftest import print_table
except ImportError:  # standalone invocation without the benchmarks conftest
    def print_table(title, header, rows):
        print(f"\n=== {title} ===")
        for row in [header] + rows:
            print("  ".join(str(cell).ljust(18) for cell in row))

#: Simulated hardware latency per homomorphic op (seconds) — dominates the
#: evaluation cost on any host, so ratios transfer between machines.
OP_LATENCY = 0.002
#: Batch formation window (seconds): what relaxed requests amortize across
#: and tight requests refuse to wait for.
BATCH_WINDOW = 0.05
#: Job-engine worker threads.
WORKERS = 2
#: The relaxed flood: clients x requests-per-client (batches form within a
#: client, so each client contributes full lanes).
FLOOD_CLIENTS = 4
FLOOD_REQUESTS = 24
#: The tight stream: paced requests with a real deadline.
TIGHT_REQUESTS = 20
TIGHT_DEADLINE_MS = 400.0
TIGHT_INTERVAL = 0.02
#: Acceptance bars (mirrored by check_regression.py's gates).
MIN_ATTAINMENT = 0.95
MIN_THROUGHPUT_RATIO = 0.8
#: Reference-comparison tolerance (mock-exact backend).
ATOL = 1e-6


def build_program() -> EvaProgram:
    program = EvaProgram("poly", vec_size=64, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", (x * x + x * 0.5) * (x * x - 1.0) + x, 25)
    return program


def make_server() -> EvaServer:
    server = EvaServer(
        backend=BackendSpec("mock-exact", seed=11, op_latency=OP_LATENCY).build(),
        workers=WORKERS,
        max_batch=8,
        batch_window=BATCH_WINDOW,
        telemetry=Telemetry(slow_threshold=60.0),
    )
    server.register("poly", build_program())
    return server


def run_flood(server, inputs, slo_class=None) -> float:
    """Submit the full flood asynchronously; returns throughput (req/s)."""
    started = time.perf_counter()
    futures = []
    for client in range(FLOOD_CLIENTS):
        for _ in range(FLOOD_REQUESTS):
            futures.append(
                server.submit(
                    "poly",
                    {"x": inputs},
                    client_id=f"flood-{client}",
                    slo_class=slo_class,
                )
            )
    for future in futures:
        future.result(120)
    return len(futures) / (time.perf_counter() - started)


def run(benchmark=None) -> dict:
    inputs = [0.1, 0.4, -0.3, 0.9]
    program = build_program()
    expected = execute_reference(program.graph, {"x": inputs})["y"][: len(inputs)]

    server = make_server()
    try:
        # Warm every flood client and the tight client (compile + keygen are
        # one-time costs; the warmup also seeds the cost model estimate and
        # the engine's observed wait/execute history).
        for client in range(FLOOD_CLIENTS):
            server.request("poly", {"x": inputs}, client_id=f"flood-{client}")
        response = server.request("poly", {"x": inputs}, client_id="tight")
        np.testing.assert_allclose(
            response.outputs["y"][: len(inputs)], expected, atol=ATOL
        )

        # Phase 1: the no-SLO baseline flood.
        baseline_throughput = run_flood(server, inputs, slo_class=None)

        # Phase 2: the same flood marked relaxed, with a tight paced stream
        # riding alongside under a real deadline.
        latencies, rejected = [], [0]
        flood_throughput = [0.0]

        def relaxed_flood() -> None:
            flood_throughput[0] = run_flood(server, inputs, slo_class="relaxed")

        flooder = threading.Thread(target=relaxed_flood, daemon=True)
        flooder.start()
        try:
            for _ in range(TIGHT_REQUESTS):
                start = time.perf_counter()
                try:
                    server.request(
                        "poly",
                        {"x": inputs},
                        client_id="tight",
                        deadline_ms=TIGHT_DEADLINE_MS,
                        slo_class="tight",
                    )
                except DeadlineInfeasibleError:
                    rejected[0] += 1
                else:
                    latencies.append(time.perf_counter() - start)
                time.sleep(TIGHT_INTERVAL)
        finally:
            flooder.join(timeout=120)

        engine = server.engine.metrics_snapshot()
        attained = sum(
            1 for seconds in latencies if seconds * 1e3 <= TIGHT_DEADLINE_MS
        )
        attainment = attained / TIGHT_REQUESTS
        ratio = flood_throughput[0] / max(baseline_throughput, 1e-9)
    finally:
        server.close()

    p99 = float(np.percentile(latencies, 99)) * 1e3 if latencies else float("inf")
    print_table(
        f"SLO attainment: {TIGHT_REQUESTS} tight requests "
        f"(deadline {TIGHT_DEADLINE_MS:g}ms) vs a relaxed flood of "
        f"{FLOOD_CLIENTS * FLOOD_REQUESTS}",
        ["Metric", "Value", "Bar"],
        [
            ["tight attainment", f"{attainment:.3f}", f">= {MIN_ATTAINMENT}"],
            ["tight p99 (ms)", f"{p99:.1f}", f"<= {TIGHT_DEADLINE_MS:g}"],
            ["tight rejected", rejected[0], "-"],
            [
                "relaxed throughput",
                f"{flood_throughput[0]:.1f}/s",
                f">= {MIN_THROUGHPUT_RATIO}x baseline",
            ],
            ["baseline throughput", f"{baseline_throughput:.1f}/s", "-"],
            ["throughput ratio", f"{ratio:.2f}x", f">= {MIN_THROUGHPUT_RATIO}x"],
        ],
    )

    assert attainment >= MIN_ATTAINMENT, (
        f"only {attainment:.0%} of tight requests made their "
        f"{TIGHT_DEADLINE_MS:g}ms deadline (bar {MIN_ATTAINMENT:.0%})"
    )
    assert ratio >= MIN_THROUGHPUT_RATIO, (
        f"relaxed throughput fell to {ratio:.2f}x of the no-SLO baseline "
        f"(bar {MIN_THROUGHPUT_RATIO}x): tight scheduling broke batching"
    )

    payload = {
        "benchmark": "slo_attainment",
        "op_latency_seconds": OP_LATENCY,
        "batch_window_seconds": BATCH_WINDOW,
        "tight": {
            "deadline_ms": TIGHT_DEADLINE_MS,
            "requests": TIGHT_REQUESTS,
            "attainment": attainment,
            "p99_ms": p99,
            "rejected": rejected[0],
            "engine_attained": engine["slo_attained"],
            "engine_missed": engine["slo_missed"],
        },
        "relaxed": {
            "throughput_per_second": flood_throughput[0],
            "baseline_throughput_per_second": baseline_throughput,
            "throughput_ratio": ratio,
        },
    }
    print(json.dumps(payload))
    if benchmark is not None:
        # Benchmark target: one tight request under no contention.
        server = make_server()
        server.request("poly", {"x": inputs}, client_id="tight")
        benchmark.pedantic(
            lambda: server.request(
                "poly",
                {"x": inputs},
                client_id="tight",
                deadline_ms=TIGHT_DEADLINE_MS,
                slo_class="tight",
            ),
            rounds=3,
            iterations=1,
        )
        server.close()
    else:
        import os

        os.makedirs("bench-out", exist_ok=True)
        with open("bench-out/slo_attainment.json", "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
    return payload


def test_slo_attainment(benchmark):
    run(benchmark)


if __name__ == "__main__":
    result = run(None)
    print(
        f"slo attainment ok: tight {result['tight']['attainment']:.0%} >= "
        f"{MIN_ATTAINMENT:.0%}, relaxed "
        f"{result['relaxed']['throughput_ratio']:.2f}x >= "
        f"{MIN_THROUGHPUT_RATIO}x"
    )
    sys.exit(0)
