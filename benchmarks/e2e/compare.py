#!/usr/bin/env python3
"""Apply the bounds of ``BENCHMARK.json`` to two result documents.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

Both files come from ``run.py --out`` (use ``--repeat`` for several runs per
workload).  One row per workload x end-to-end metric: base median, new
median, their ratio, the bound, and a verdict:

* ``ok``         - not worse than the base by more than the bound;
* ``breach``     - worse by more than the bound;
* ``unresolved`` - within the bound, but one side's own quartile spread is
  wider than the bound, so "unchanged" cannot be claimed either.

Exits 1 on any breach, or when a workload's failed share went up.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

from e2e_stats import median, quartile_spread

CATALOGUE = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def metric_values(document: Dict[str, Any], workload: str, metric: str) -> List[float]:
    runs = document["workloads"].get(workload, {}).get("runs", [])
    return [run["metrics"][metric]["value"] for run in runs if metric in run["metrics"]]


def failed_share(document: Dict[str, Any], workload: str) -> float:
    runs = document["workloads"].get(workload, {}).get("runs", [])
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare(base: Dict[str, Any], new: Dict[str, Any], catalogue: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for workload in (w["name"] for w in catalogue["workloads"]):
        for spec in catalogue["end_to_end"]:
            before = metric_values(base, workload, spec["name"])
            after = metric_values(new, workload, spec["name"])
            if not before or not after:
                continue
            base_median, new_median = median(before), median(after)
            ratio = new_median / base_median if base_median else float("inf")
            worse_by = ratio - 1.0 if spec["better"] == "lower" else 1.0 - ratio
            spread = max(quartile_spread(before), quartile_spread(after))
            if worse_by > spec["bound"]:
                verdict = "breach"
            elif spread > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload, "metric": spec["name"], "unit": spec["unit"],
                    "base": base_median, "new": new_median, "ratio": ratio,
                    "bound": spec["bound"], "spread": spread, "verdict": verdict,
                }
            )  # fmt: skip
        before_failed, after_failed = failed_share(base, workload), failed_share(new, workload)
        if workload in base["workloads"] and workload in new["workloads"]:
            rows.append(
                {
                    "workload": workload, "metric": "failed_share", "unit": "frac",
                    "base": before_failed, "new": after_failed,
                    "ratio": float("nan"), "bound": 0.0, "spread": 0.0,
                    "verdict": "breach" if after_failed > before_failed else "ok",
                }
            )  # fmt: skip
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as handle:
            documents.append(json.load(handle))
    with open(CATALOGUE, "r", encoding="utf-8") as handle:
        catalogue = json.load(handle)
    rows = compare(documents[0], documents[1], catalogue)
    print(
        f"{'workload':<14} {'metric':<18} {'base':>14} {'new':>14} {'new/base':>9} "
        f"{'bound':>6} {'spread':>7}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:<14} {row['metric']:<18} {row['base']:>14.6g} {row['new']:>14.6g} "
            f"{row['ratio']:>9.4f} {row['bound']:>6.2f} {row['spread']:>7.4f}  {row['verdict']}"
            f" [{row['unit']}]"
        )
    breaches = [row for row in rows if row["verdict"] == "breach"]
    unresolved = sum(1 for row in rows if row["verdict"] == "unresolved")
    print(f"{len(rows)} rows, {len(breaches)} breach(es), {unresolved} unresolved")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
