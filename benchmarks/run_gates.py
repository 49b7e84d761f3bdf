"""Manifest-driven benchmark gate runner for CI.

Every gated benchmark used to be a copy-pasted pair of workflow steps — run
the bench, then call ``check_regression.py`` with the matching baseline.
Adding a benchmark meant editing the pair into up to three jobs and hoping
the file names lined up.  The pairs now live in one manifest,
``benchmarks/gates.toml``; CI calls::

    python benchmarks/run_gates.py --suite tier1

which runs every manifest entry tagged with that suite (the bench script as
a subprocess, its stdout mirrored and saved to ``bench-out/<name>.log``) and
gates the fresh payload against the committed ``BENCH_<name>.json`` via
:mod:`check_regression` in-process.  ``tools/check_docs.py`` cross-checks
the manifest against the baselines committed at the repo root, so a
``BENCH_*.json`` can be neither orphaned nor silently ungated.

The manifest is parsed by :mod:`repro.tomlcompat` — ``tomllib`` where the
interpreter has it (3.11+), the repo's one TOML-subset parser otherwise; the
tier-1 matrix still includes 3.10, so that leg exercises the fallback.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import tomlcompat  # noqa: E402

DEFAULT_MANIFEST = Path(__file__).resolve().parent / "gates.toml"
REQUIRED_FIELDS = ("script", "baseline", "fresh", "suites")


class ManifestError(RuntimeError):
    """The gates manifest is malformed or inconsistent."""


def load_manifest(path: Path = DEFAULT_MANIFEST) -> Dict[str, Dict[str, Any]]:
    """Parse and validate the gates manifest; returns ``{name: entry}``."""
    try:
        data = tomlcompat.loads(Path(path).read_bytes().decode("utf-8"))
    except ValueError as error:
        raise ManifestError(f"{path}: malformed TOML: {error}") from None
    gates = data.get("gate")
    if not isinstance(gates, dict) or not gates:
        raise ManifestError(f"{path}: no [gate.<name>] tables found")
    for name, entry in gates.items():
        for field in REQUIRED_FIELDS:
            if field not in entry:
                raise ManifestError(f"{path}: gate {name!r} is missing {field!r}")
        if not isinstance(entry["suites"], list) or not entry["suites"]:
            raise ManifestError(f"{path}: gate {name!r} needs a non-empty suites list")
        tolerance = entry.get("tolerance")
        if tolerance is not None and not 0.0 < float(tolerance) < 1.0:
            raise ManifestError(f"{path}: gate {name!r} tolerance must be in (0, 1)")
    return gates


def manifest_suites(gates: Dict[str, Dict[str, Any]]) -> List[str]:
    names: List[str] = []
    for entry in gates.values():
        for suite in entry["suites"]:
            if suite not in names:
                names.append(suite)
    return names


def run_gate(name: str, entry: Dict[str, Any], log_dir: Path) -> bool:
    """Run one benchmark and its regression gate; True when both pass."""
    script = REPO_ROOT / entry["script"]
    baseline = REPO_ROOT / entry["baseline"]
    fresh = REPO_ROOT / entry["fresh"]
    title = entry.get("title", name)
    print(f"::group::{name} — {title}" if os.environ.get("GITHUB_ACTIONS") else f"== {name} — {title}")
    sys.stdout.flush()
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    sys.stdout.write(proc.stdout)
    log_dir.mkdir(parents=True, exist_ok=True)
    (log_dir / f"{name}.log").write_text(proc.stdout, encoding="utf-8")
    ok = proc.returncode == 0
    if not ok:
        print(f"{name}: benchmark exited with {proc.returncode}")
    elif not fresh.exists():
        ok = False
        print(f"{name}: benchmark did not write {entry['fresh']}")
    else:
        import check_regression

        gate_argv = ["--baseline", str(baseline), "--fresh", str(fresh)]
        if "tolerance" in entry:
            gate_argv += ["--tolerance", str(entry["tolerance"])]
        ok = check_regression.main(gate_argv) == 0
    if os.environ.get("GITHUB_ACTIONS"):
        print("::endgroup::")
        if not ok:
            print(f"::error::benchmark gate {name} failed ({title})")
    sys.stdout.flush()
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the gated benchmarks of one CI suite from gates.toml."
    )
    parser.add_argument(
        "--manifest", type=Path, default=DEFAULT_MANIFEST, help="gates manifest path"
    )
    parser.add_argument("--suite", help="run every gate tagged with this suite")
    parser.add_argument(
        "--gate", action="append", default=None, help="run specific gate(s) by name"
    )
    parser.add_argument(
        "--list", action="store_true", help="print the manifest and exit"
    )
    parser.add_argument(
        "--log-dir",
        type=Path,
        default=REPO_ROOT / "bench-out",
        help="where per-benchmark stdout logs are written",
    )
    args = parser.parse_args(argv)

    gates = load_manifest(args.manifest)
    if args.list:
        for name, entry in gates.items():
            suites = ",".join(entry["suites"])
            print(f"{name:20s} suites={suites:30s} baseline={entry['baseline']}")
        return 0

    if bool(args.suite) == bool(args.gate):
        parser.error("pass exactly one of --suite or --gate (or --list)")
    if args.suite:
        known = manifest_suites(gates)
        if args.suite not in known:
            parser.error(f"unknown suite {args.suite!r}; manifest has {known}")
        selected = {
            name: entry
            for name, entry in gates.items()
            if args.suite in entry["suites"]
        }
    else:
        missing = [name for name in args.gate if name not in gates]
        if missing:
            parser.error(f"unknown gate(s) {missing}; manifest has {sorted(gates)}")
        selected = {name: gates[name] for name in args.gate}

    failures = []
    for name, entry in selected.items():
        if not run_gate(name, entry, args.log_dir):
            failures.append(name)
    print(
        f"gates: {len(selected) - len(failures)}/{len(selected)} passed"
        + (f", FAILED: {', '.join(failures)}" if failures else "")
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
