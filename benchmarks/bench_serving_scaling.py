"""Shard-scaling throughput: 1, 2, and 4 EvaServer shard processes.

The single-process server is ultimately bounded by one interpreter;
:class:`~repro.serving.EvaCluster` scales past it by running N full
``EvaServer`` shards in their own processes and consistent-hash-routing each
client to one of them.  This benchmark measures end-to-end request throughput
(TCP transport, routing, queueing, evaluation) at 1, 2, and 4 shards and
asserts the sharded topology actually pays: **>= 2x throughput at 4 shards
vs 1**.

The mock backend is run with a simulated per-operation hardware latency
(``op_latency``): real CKKS primitives cost milliseconds each, while the
plain mock executes in microseconds, so without it the measurement would
reflect the host's core count (CI runners have 2-4, this container has 1)
instead of the serving stack's ability to keep N shards busy.  With it, the
experiment is reproducible anywhere: per-request cost is dominated by
(simulated) evaluation time, and throughput scales with the number of shard
processes exactly as it would with real per-node FHE hardware.

Clients are chosen so the consistent-hash ring spreads them evenly over the
4-shard topology (the ring is deterministic, so this is reproducible); the
benchmark measures shard scaling, not hash luck.  Each client submits its
requests serially — as independent clients would — from its own thread.

Runs standalone (``python benchmarks/bench_serving_scaling.py``) for CI, or
under pytest-benchmark with the rest of the suite.  Standalone runs also
write ``bench-out/serving_scaling.json`` for the CI regression gate and
artifact upload.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import numpy as np

from repro.api import execute_reference
from repro.frontend import EvaProgram, input_encrypted, output
from repro.serving import BackendSpec, ConsistentHashRing, EvaCluster

try:
    from conftest import print_table
except ImportError:  # standalone invocation without the benchmarks conftest
    def print_table(title, header, rows):
        print(f"\n=== {title} ===")
        for row in [header] + rows:
            print("  ".join(str(cell).ljust(18) for cell in row))

#: Shard counts measured (the assert compares the last against the first).
SHARD_COUNTS = (1, 2, 4)
#: Simulated hardware latency per homomorphic op (seconds).
OP_LATENCY = 0.003
#: Clients, spread evenly across the 4-shard ring.
NUM_CLIENTS = 12
#: Serial requests per client per measured run.
REQUESTS_PER_CLIENT = 4
#: Job-engine workers per shard (identical at every shard count).
WORKERS_PER_SHARD = 2
#: Logical width of each request.
REQUEST_WIDTH = 16
#: Ciphertext slot budget.
VEC_SIZE = 256
#: Reference-comparison tolerance (mock-exact backend).
ATOL = 1e-6
#: Acceptance bar: throughput at 4 shards vs 1 shard.
MIN_SPEEDUP = 2.0


def build_program() -> EvaProgram:
    program = EvaProgram("poly35", vec_size=VEC_SIZE, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", (x ** 2 + x * 0.5) * (x ** 2 - 1.0) + x, 25)
    return program


def pick_clients(count: int = NUM_CLIENTS) -> list:
    """Client ids that the deterministic ring spreads evenly over 4 shards."""
    ring = ConsistentHashRing(tuple(range(max(SHARD_COUNTS))))
    per_shard = count // max(SHARD_COUNTS)
    buckets = {node: [] for node in ring.nodes}
    candidate = 0
    while any(len(ids) < per_shard for ids in buckets.values()):
        client = f"client-{candidate}"
        candidate += 1
        home = ring.route(client)
        if len(buckets[home]) < per_shard:
            buckets[home].append(client)
    clients = [client for ids in buckets.values() for client in ids]
    assert len(clients) == count
    return clients


def run_shards(shards: int, program: EvaProgram, clients: list, requests) -> float:
    """Wall-clock seconds to serve every client's request stream."""
    cluster = EvaCluster(
        shards=shards,
        backend=BackendSpec("mock-exact", seed=7, op_latency=OP_LATENCY),
        workers=WORKERS_PER_SHARD,
        batch_window=0.0,
    )
    cluster.register("poly35", program)
    cluster.start()
    try:
        reference = execute_reference(program.graph, {"x": requests[0]})
        # Warm every (client, shard) pair: per-shard compilation and
        # per-client keygen are one-time costs, not the steady state.
        for client_id in clients:
            outputs = cluster.submit(
                "poly35", {"x": requests[0]}, client_id=client_id
            )
            np.testing.assert_allclose(
                outputs["y"][:REQUEST_WIDTH], reference["y"][:REQUEST_WIDTH], atol=ATOL
            )

        errors = []

        def client_stream(client_id: str) -> None:
            try:
                for request in requests:
                    cluster.submit("poly35", {"x": request}, client_id=client_id)
            except Exception as exc:  # noqa: BLE001 - surface in the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=client_stream, args=(client_id,), daemon=True)
            for client_id in clients
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        if errors:
            raise errors[0]
        return elapsed
    finally:
        cluster.close()


def run(benchmark=None) -> float:
    program = build_program()
    clients = pick_clients()
    rng = np.random.default_rng(42)
    requests = [rng.uniform(-1.0, 1.0, REQUEST_WIDTH) for _ in range(REQUESTS_PER_CLIENT)]
    total_requests = len(clients) * len(requests)

    results = {}
    for shards in SHARD_COUNTS:
        elapsed = run_shards(shards, program, clients, requests)
        results[shards] = {
            "seconds": elapsed,
            "throughput_per_second": total_requests / elapsed,
        }

    base = results[SHARD_COUNTS[0]]["throughput_per_second"]
    rows = []
    for shards in SHARD_COUNTS:
        throughput = results[shards]["throughput_per_second"]
        results[shards]["speedup"] = throughput / base
        rows.append(
            [
                shards,
                f"{results[shards]['seconds']:.3f}",
                f"{throughput:.1f}",
                f"{throughput / base:.2f}x",
            ]
        )
    print_table(
        f"Cluster scaling: {total_requests} requests, {len(clients)} clients, "
        f"op latency {OP_LATENCY * 1e3:.0f}ms",
        ["Shards", "Total (s)", "Requests/s", "Scaling"],
        rows,
    )

    speedup = results[max(SHARD_COUNTS)]["speedup"]
    payload = {
        "benchmark": "serving_scaling",
        "total_requests": total_requests,
        "op_latency_seconds": OP_LATENCY,
        "per_shards": {str(k): v for k, v in results.items()},
        "speedup_4_vs_1": speedup,
        "min_speedup": MIN_SPEEDUP,
    }
    print(json.dumps(payload))

    assert speedup >= MIN_SPEEDUP, (
        f"4 shards only {speedup:.2f}x the 1-shard throughput "
        f"(expected >= {MIN_SPEEDUP:.1f}x)"
    )

    if benchmark is not None:
        cluster = EvaCluster(
            shards=2,
            backend=BackendSpec("mock-exact", seed=7, op_latency=OP_LATENCY),
            workers=WORKERS_PER_SHARD,
            batch_window=0.0,
        )
        cluster.register("poly35", program)
        cluster.start()
        try:
            cluster.submit("poly35", {"x": requests[0]}, client_id=clients[0])
            benchmark.pedantic(
                lambda: cluster.submit(
                    "poly35", {"x": requests[0]}, client_id=clients[0]
                ),
                rounds=3,
                iterations=1,
            )
        finally:
            cluster.close()
    else:
        # bench-out/ keeps the fresh payload apart from the committed
        # BENCH_* baseline (which differs only by case — a collision on
        # case-insensitive filesystems).
        import os

        os.makedirs("bench-out", exist_ok=True)
        with open("bench-out/serving_scaling.json", "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
    return speedup


def test_serving_scaling(benchmark):
    run(benchmark)


if __name__ == "__main__":
    achieved = run(None)
    print(f"shard scaling ok: {achieved:.2f}x >= {MIN_SPEEDUP:.1f}x")
    sys.exit(0)
