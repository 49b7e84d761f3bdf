#!/usr/bin/env python3
"""One command for the end-to-end benchmark on the real CKKS backend.

    python3 benchmarks/e2e/run.py --workload rotate_sum --seed 1 --seconds 16 --trace 0
    python3 benchmarks/e2e/run.py --seed 1 --out bench-out/e2e.json          # all four
    python3 benchmarks/e2e/run.py --seed 1 --trace 1 --out bench-out/e2e_traced.json

Prints every metric by name with its unit, checks every output against an
independent reference, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics with
``--trace 1`` (0 where a layer takes no part in the workload).  The metric
catalogue, units and bounds live in ``BENCHMARK.json`` only.

Without ``--workload``, or with ``--repeat``, every run is a process of its
own (this same script), so one run's cached tables and peak memory never show
up in the next one's numbers, exactly as when the driver runs them one by one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC_DIR = ROOT / "src"
OUT_DIR = ROOT / "bench-out"
CATALOGUE = ROOT / "BENCHMARK.json"


#: How long a child of the all-workloads mode may run, and how long it gets to
#: clean up after SIGTERM before its process group is killed.
CHILD_TIMEOUT_S = 300.0
CHILD_GRACE_S = 20.0


def _exit_on_sigterm(_signum, _frame) -> None:
    # Unwinds through every ``finally`` / ``with``, so the server is stopped
    # and its session directory removed, which the default action skips.
    sys.exit(128 + signal.SIGTERM)


def load_catalogue() -> Dict[str, Any]:
    with open(CATALOGUE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def units_of(catalogue: Dict[str, Any]) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in catalogue["end_to_end"] + catalogue["per_layer"]}


def environment() -> Dict[str, Any]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit or "unknown",
        "machine": platform.machine(),
    }


def contract_metrics(result, catalogue: Dict[str, Any], traced: bool) -> Dict[str, Dict[str, Any]]:
    """The metrics of the closing JSON line: every catalogue name of the mode.

    A layer that takes no part in a workload reads 0; an end-to-end metric a
    workload did not produce is an error, never a 0.
    """
    if traced:
        wanted = catalogue["per_layer"]
    else:
        wanted = catalogue["end_to_end"]
        missing = sorted({m["name"] for m in wanted} - set(result.metrics))
        if missing:
            raise SystemExit(f"{result.workload} produced no {missing}")
    return {
        m["name"]: {"value": float(result.metrics.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }


def result_record(result, units: Dict[str, str]) -> Dict[str, Any]:
    return {
        "attempted": result.attempted,
        "failed": result.failed,
        "samples": result.samples,
        "warmup": result.warmup,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in result.metrics.items()
        },
        **result.notes,
    }


def print_metrics(name: str, result, units: Dict[str, str]) -> None:
    print(
        f"== {name}: {result.attempted} attempted, {result.failed} failed, "
        f"{result.samples} timed samples, {result.warmup} warm-up"
    )
    if "op_tail_s" in result.notes:
        print(f"  tail: p{result.notes['tail_percentile']} = {result.notes['op_tail_s']:.6f} s")
    for metric, value in result.metrics.items():
        print(f"  {metric:<46} {value:>16.6f} {units[metric]}")


def run_one(args: argparse.Namespace, catalogue: Dict[str, Any], traced: bool) -> Dict[str, Any]:
    """Run ``args.workload`` once in this process; return its record and closing line."""
    sys.path.insert(0, str(SRC_DIR))
    sys.path.insert(0, str(HERE))
    from e2e_workloads import RunConfig, run_workload

    units = units_of(catalogue)
    name = args.workload
    cfg = RunConfig(seed=args.seed, seconds=args.seconds, traced=traced, src_dir=SRC_DIR, out_dir=OUT_DIR)
    result = run_workload(name, cfg)
    unknown = sorted(set(result.metrics) - set(units))
    if unknown:
        raise SystemExit(f"{name} emitted metrics BENCHMARK.json does not name: {unknown}")
    print_metrics(name, result, units)
    if traced:
        with open(OUT_DIR / f"e2e_trace.{name}.json", "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "workload": name, "spans": result.spans}, handle)
    closing = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": contract_metrics(result, catalogue, traced),
    }
    return {"runs": [result_record(result, units)], "closing": closing}


def run_in_a_child(args: argparse.Namespace, name: str, traced: bool) -> Dict[str, Any]:
    """One run of one workload in a process of its own (this same script)."""
    part = OUT_DIR / f"e2e_part.{name}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(int(traced)),
        "--out", str(part),
    ]  # fmt: skip
    # A session of its own, so that on a timeout the whole group can be
    # stopped: the child first (it stops its server on SIGTERM), then
    # whatever is left.
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True) as child:
        try:
            stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            child.terminate()
            try:
                child.wait(timeout=CHILD_GRACE_S)
            except subprocess.TimeoutExpired:
                pass
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            raise
    lines = stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    if child.returncode != 0:
        raise SystemExit(f"{name} exited with code {child.returncode}")
    with open(part, "r", encoding="utf-8") as handle:
        runs = json.load(handle)["workloads"][name]["runs"]
    part.unlink()
    return {"runs": runs, "closing": json.loads(lines[-1])}


def run_rounds(args: argparse.Namespace, names: List[str], traced: bool) -> Dict[str, Any]:
    """``--repeat`` rounds over ``names``, every run in a process of its own.

    Round by round, not workload by workload: this VM slows down by up to a
    half for a minute or two at a time, and five runs of one workload in a row
    fit inside one such phase.  Spread over the whole session, a phase
    reaches one or two of a workload's runs and the median stays.
    """
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    merged: Dict[str, Any] = {}
    for _ in range(max(1, args.repeat)):
        for name in names:
            part = run_in_a_child(args, name, traced)
            if name not in merged:
                merged[name] = part
                continue
            merged[name]["runs"] += part["runs"]
            closing = merged[name]["closing"]
            closing["correct"] = closing["correct"] and part["closing"]["correct"]
            closing["attempted"] += part["closing"]["attempted"]
            closing["failed"] += part["closing"]["failed"]
            closing["metrics"] = part["closing"]["metrics"]
    return merged


def main(argv: List[str]) -> int:
    catalogue = load_catalogue()
    names = [w["name"] for w in catalogue["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(catalogue["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0, help="1: per-layer run")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload kept in --out")
    parser.add_argument("--out", type=Path, help="write the full result document here")
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    if not SRC_DIR.is_dir():
        print(f"error: the system under test is missing: {SRC_DIR} not found", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if args.workload and args.repeat <= 1:
        workloads = {args.workload: run_one(args, catalogue, traced)}
        closing = workloads[args.workload]["closing"]
    else:
        workloads = run_rounds(args, [args.workload] if args.workload else names, traced)
        closing = {
            "correct": all(part["closing"]["correct"] for part in workloads.values()),
            "attempted": sum(part["closing"]["attempted"] for part in workloads.values()),
            "failed": sum(part["closing"]["failed"] for part in workloads.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, part in workloads.items()
                for metric, value in part["closing"]["metrics"].items()
            },
        }
    if args.out:
        document = {
            "benchmark": "e2e",
            "backend": "ckks",
            "seed": args.seed,
            "traced": traced,
            "seconds": args.seconds,
            "environment": environment(),
            "workloads": {name: {"runs": part["runs"]} for name, part in workloads.items()},
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps(closing))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
