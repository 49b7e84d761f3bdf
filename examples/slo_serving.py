"""SLO-aware serving: tight deadlines next to relaxed batch traffic.

Two encrypted clients share a 2-shard cluster (see ``docs/architecture.md``):

* ``trader`` submits a paced stream of **tight** requests with a real
  ``deadline_ms``.  The engine gives them a zero linger budget (solo
  execution, no waiting for batch lane-mates) and rejects any request whose
  modeled queue wait + execution cannot meet the deadline — up front, with a
  typed :class:`~repro.errors.DeadlineInfeasibleError` carrying a
  ``retry_after`` hint, instead of letting the client discover the miss
  after the deadline has already passed.

* ``analytics`` floods **relaxed** requests with no deadline.  Relaxed
  traffic always lingers the full batch window, so it keeps its slot-batch
  amortization even while the tight stream cuts through.

Both clients hold their own keys: the cluster sees only evaluation keys and
ciphertexts, and the SLO fields ride the request envelope identically to
the plaintext path.  At the end the example prints the ``serving.slo.*``
outcome counters from the cluster-wide metrics snapshot.

Run with::

    PYTHONPATH=src python examples/slo_serving.py
"""

import threading
import time

import numpy as np

from repro.api import ClientKit, CompiledProgram, execute_reference
from repro.backend import MockBackend
from repro.errors import DeadlineInfeasibleError
from repro.frontend import EvaProgram, input_encrypted, output
from repro.serving import BackendSpec, EvaCluster

#: Simulated per-op hardware latency: makes deadlines meaningful on any host.
OP_LATENCY = 0.002
BATCH_WINDOW = 0.05
TIGHT_DEADLINE_MS = 400.0
TIGHT_REQUESTS = 10
RELAXED_REQUESTS = 24


def build_program() -> EvaProgram:
    program = EvaProgram("poly", vec_size=64, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", (x * x + x * 0.5) * (x * x - 1.0) + x, 25)
    return program


def make_kit(program, client_id: str) -> ClientKit:
    return ClientKit(
        CompiledProgram.compile(program.graph),
        backend=MockBackend(error_model="none"),
        client_id=client_id,
    )


def slo_counters(cluster) -> dict:
    """Aggregate serving.slo.* counters from the cluster snapshot."""
    totals = {}
    for counter in cluster.metrics_snapshot()["counters"]:
        name = counter["name"]
        labels = counter.get("labels", {})
        if name.startswith("serving.slo.") and "shard" not in labels:
            key = (name, labels.get("slo_class", "?"))
            totals[key] = totals.get(key, 0) + int(counter["value"])
    return totals


def main() -> None:
    program = build_program()
    inputs = {"x": [0.1, 0.4, -0.3, 0.9]}
    expected = execute_reference(program.graph, inputs)["y"][:4]

    cluster = EvaCluster(
        shards=2,
        backend=BackendSpec("mock-exact", seed=11, op_latency=OP_LATENCY),
        batch_window=BATCH_WINDOW,
        workers=2,
    )
    cluster.register("poly", program)
    cluster.start()
    try:
        trader = make_kit(program, "trader")
        analytics = make_kit(program, "analytics")
        for kit in (trader, analytics):
            cluster.create_session("poly", kit)
            # Warm the path end to end (compile + keygen are one-time costs).
            outputs = cluster.submit_encrypted("poly", kit, inputs)
            np.testing.assert_allclose(outputs["y"][:4], expected, atol=1e-6)

        # The relaxed flood: a loose deadline (outcomes still counted), full
        # batch-window amortization.
        def relaxed_flood() -> None:
            for _ in range(RELAXED_REQUESTS):
                cluster.submit_encrypted(
                    "poly",
                    analytics,
                    inputs,
                    deadline_ms=5000.0,
                    slo_class="relaxed",
                )

        flood = threading.Thread(target=relaxed_flood)
        flood.start()

        # The tight stream: paced, deadline-carrying, never lingers.
        latencies, rejected = [], 0
        for _ in range(TIGHT_REQUESTS):
            started = time.perf_counter()
            try:
                outputs = cluster.submit_encrypted(
                    "poly",
                    trader,
                    inputs,
                    deadline_ms=TIGHT_DEADLINE_MS,
                    slo_class="tight",
                )
            except DeadlineInfeasibleError as error:
                rejected += 1
                print(f"tight request rejected up front, retry in {error.retry_after:.3f}s")
            else:
                np.testing.assert_allclose(outputs["y"][:4], expected, atol=1e-6)
                latencies.append(time.perf_counter() - started)
            time.sleep(0.02)
        flood.join()

        print(f"\ntight: {len(latencies)} served, {rejected} rejected up front")
        if latencies:
            print(
                f"tight p95: {np.percentile(latencies, 95) * 1e3:.1f}ms "
                f"(deadline {TIGHT_DEADLINE_MS:g}ms)"
            )
        print("\nserving.slo.* outcome counters (cluster-wide aggregate):")
        for (name, slo_class), value in sorted(slo_counters(cluster).items()):
            print(f"  {name:26s} slo_class={slo_class:9s} {value}")
    finally:
        cluster.close()


if __name__ == "__main__":
    main()
