"""CI regression gate: compare a fresh benchmark run against a committed baseline.

The serving benchmarks print (and, standalone, write) a JSON payload with a
``benchmark`` name and their headline metrics.  The repository commits one
baseline payload per gated benchmark (``BENCH_<name>.json`` at the repo
root); CI re-runs the benchmark and calls::

    python benchmarks/check_regression.py \
        --baseline BENCH_serving_scaling.json \
        --fresh bench_serving_scaling.json

which fails (exit 1) when any gated metric regressed by more than the
tolerance band (default 20%).  Metrics are chosen to be hardware-independent
where possible — speedups and amortization ratios, plus throughput under the
mock backend's *simulated* per-op latency, which dominates the measurement on
any host — so the committed numbers transfer between the dev container and
CI runners.

When a legitimate speedup lands, refresh the baseline by re-running the
benchmark and committing its fresh JSON over the old ``BENCH_*.json`` (see
README "Operating the cluster").
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Tuple

#: Gated metrics per benchmark: (dotted path, direction) or (dotted path,
#: direction, tolerance).  ``higher`` means bigger is better (a drop is a
#: regression); ``lower`` the opposite.  The optional third element pins the
#: tolerance band for that metric regardless of the run-wide ``--tolerance``
#: (for attainment-style fractions where 20% of slack would be meaningless).
GATES: Dict[str, List[Tuple]] = {
    "serving_scaling": [
        ("speedup_4_vs_1", "higher"),
        ("per_shards.4.throughput_per_second", "higher"),
    ],
    "serving_amortized": [
        ("speedup", "higher"),
    ],
    "wire": [
        # Bytes-on-wire reduction, JSON / binary, for one session creation
        # plus one encrypted submit.  Blob sizes are fixed by the parameter
        # set, so this ratio is deterministic across hosts; setup latency is
        # deliberately *not* gated (too noisy on shared runners).
        ("bytes.ratio", "higher"),
        # The binary total itself, an exact count but for a few bytes of the
        # reply's timing text: the near-zero band exact counts get.
        ("bytes.binary", "lower", 0.001),
    ],
    "rotation_cost": [
        # Rotations per batched evaluation over unbatched, on the two
        # rotation-heavy kernels — the lane tax after hoisting.  Compile-time
        # op counts: deterministic across hosts.
        ("sobel.rotation_ratio", "lower"),
        ("harris.rotation_ratio", "lower"),
        # Galois keys per session of the lane variant (5 on both: the solo
        # program's 4 plus the shared wrap step).  Exact counts — near-zero
        # bands; a rise means the planner or the wrap composition regressed
        # and clients upload fat key sets again.
        ("sobel.optimized_key_steps", "lower", 0.001),
        ("harris.optimized_key_steps", "lower", 0.001),
    ],
    "cluster_fairness": [
        # Light-client p95 contended/solo: a *growing* ratio means the fair
        # queue is letting the greedy client win.  Run with a wide tolerance
        # (CI passes --tolerance 0.5): the ratio hovers near 1.0 but single
        # scheduler hiccups move it tens of percent on shared runners.
        ("fairness.ratio", "lower"),
        # Artifact-cache cold start: second-shard load vs first-shard
        # compile.  A drop below the band means shards went back to
        # recompiling what a sibling already published.
        ("coldstart.ratio", "higher"),
    ],
    "ckks_kernels": [
        # The batched NTT kernel vs the reference row loop, and NTT-domain
        # key switching vs the retained coefficient-domain reference, and the
        # twisted-FFT encoder vs the dense embedding matrix, timed back to
        # back in one process on the real scheme — ratios, so they
        # transfer between hosts.  The pinned bands keep the gate floor at or
        # above the 2x acceptance bar instead of 20% under whatever number
        # was last committed.
        ("ntt.speedup", "higher", 0.6),
        ("relinearize.speedup", "higher", 0.25),
        ("rotation_group.speedup", "higher", 0.6),
        # The dense side is one pass over a 134 MB matrix, so this ratio
        # follows the host's memory bandwidth (~20x to ~200x seen); the wide
        # band gates "still an order of magnitude", not the last number.
        ("encoder.speedup", "higher", 0.9),
        # Three multiply + relinearize + rescale groups with forms following
        # the operations, over the same evaluator forced back to coefficient
        # form after every op.  The ratio sits near 1.3x, so a 20% band puts
        # the floor at "forms still pay"; the NTT rows of the form-following
        # side are an exact count (54: x into evaluation form 6, key switches
        # 24, fused special-prime + rescale divisions 20, export 4) and get
        # the near-zero band exact counts get.
        ("multiply_chain.speedup", "higher", 0.2),
        ("multiply_chain.ntt_rows.following", "lower", 0.001),
        # A reduction tree of ten rotate-then-add steps, c0 extended down the
        # whole chain, over the reference key switch after every step.  The
        # production rows are an exact count (167: 12 digit rows and 4 back
        # for c1 per step, 3 to lift the fresh c0 once, 4 for c0's one division
        # at the end) and get the near-zero band; the ratio read 2.8x to 4.0x
        # over nine runs on the committing host (3.6x committed), which is the
        # band.
        ("rotation_chain.speedup", "higher", 0.3),
        ("rotation_chain.ntt_rows.production", "lower", 0.001),
        # A new client's keys end to end — keygen, export, import, first
        # rotation — seeded vs the same keys written out in full.  Both row
        # counts are exact (181: keygen 86, import 72 — each switching key's
        # evaluation form, built at attach — the first rotation 19 and its
        # reply's export 4; 328 written out: 75 more to write the seeds out,
        # 72 more at import) and get the near-zero band; the ratio sits near
        # 1.7x and its 30% band gates "seeds still pay", not the last number.
        ("session_keys.speedup", "higher", 0.3),
        ("session_keys.ntt_rows.seeded", "lower", 0.001),
        ("session_keys.ntt_rows.written_out", "lower", 0.001),
    ],
    "async_frontdoor": [
        # Idle connections the event loop held open while mixed JSON+binary
        # traffic flowed, and the fraction of that traffic answered
        # correctly.  Exact counts — near-zero bands.
        ("connections.sustained", "higher", 0.001),
        ("traffic.ok_fraction", "higher", 0.001),
    ],
    "slo_attainment": [
        # Fraction of tight requests finishing inside their deadline under a
        # relaxed flood.  Baseline 1.0 with a pinned 5% band: the gate is
        # "p99 attainment >= 0.95", not "within 20% of last time".
        ("tight.attainment", "higher", 0.05),
        # Relaxed throughput with SLO scheduling on, over the same flood with
        # no SLO fields at all.  Honoring tight deadlines must not cost
        # relaxed clients their batching amortization; the pinned 30% band
        # under a ~1.1x committed ratio puts the hard floor right at the
        # benchmark's own 0.8x bar while absorbing scheduler jitter.
        ("relaxed.throughput_ratio", "higher", 0.3),
    ],
}


def lookup(payload: Dict[str, Any], path: str) -> float:
    value: Any = payload
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            raise KeyError(f"metric {path!r} missing (at {part!r})")
        value = value[part]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise KeyError(f"metric {path!r} is not numeric: {value!r}")
    return float(value)


def load_payload(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "benchmark" not in payload:
        raise SystemExit(f"{path} is not a benchmark payload (no 'benchmark' key)")
    return payload


def compare(
    baseline: Dict[str, Any], fresh: Dict[str, Any], tolerance: float
) -> Tuple[List[str], List[str]]:
    """Returns (regressions, notes) for the benchmark's gated metrics."""
    name = baseline["benchmark"]
    if fresh.get("benchmark") != name:
        raise SystemExit(
            f"benchmark mismatch: baseline is {name!r}, "
            f"fresh is {fresh.get('benchmark')!r}"
        )
    gates = GATES.get(name)
    if gates is None:
        raise SystemExit(
            f"no regression gates defined for benchmark {name!r} "
            f"(known: {sorted(GATES)})"
        )
    regressions, notes = [], []
    print(f"benchmark {name!r}, tolerance {tolerance:.0%}")
    for gate in gates:
        path, direction = gate[0], gate[1]
        band = gate[2] if len(gate) > 2 else tolerance
        base = lookup(baseline, path)
        now = lookup(fresh, path)
        change = (now - base) / base if base else 0.0
        line = (
            f"  {path}: baseline {base:.4g} -> fresh {now:.4g} "
            f"({change:+.1%}, {direction} is better, band {band:.0%})"
        )
        print(line)
        if direction == "higher":
            regressed = now < base * (1.0 - band)
            improved = now > base * (1.0 + band)
        else:
            regressed = now > base * (1.0 + band)
            improved = now < base * (1.0 - band)
        if regressed:
            regressions.append(line.strip())
        elif improved:
            notes.append(
                f"{path} improved past the band — consider refreshing the "
                f"committed baseline with this run's JSON"
            )
    return regressions, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a fresh benchmark run regresses past the baseline."
    )
    parser.add_argument("--baseline", required=True, help="committed BENCH_*.json")
    parser.add_argument("--fresh", required=True, help="JSON written by the fresh run")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed relative regression before failing (default 0.20)",
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.tolerance < 1.0:
        raise SystemExit("tolerance must be in (0, 1)")
    regressions, notes = compare(
        load_payload(args.baseline), load_payload(args.fresh), args.tolerance
    )
    for note in notes:
        print(f"note: {note}")
    if regressions:
        print(
            f"REGRESSION: {len(regressions)} gated metric(s) fell outside the "
            f"{args.tolerance:.0%} band:",
            file=sys.stderr,
        )
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("regression gate ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
