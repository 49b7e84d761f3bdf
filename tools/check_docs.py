#!/usr/bin/env python
"""Docs drift gate: fail CI when docs/ stops mentioning a real surface.

Documentation rots by omission: a new CLI flag, metric, or wire op lands
with tests and telemetry but never reaches the prose.  This script
re-derives the ground truth from the code and asserts the docs mention
every piece of it:

* the metric catalogue in ``repro.serving.telemetry``'s module docstring
  (the table between ``====`` rulers) -> every metric name must appear in
  ``docs/metrics.md``, and must have a write site under ``src/repro``: a
  string literal equal to it (for ``prefix.*``, equal to the prefix), or an
  f-string whose literal head is a dotted prefix the name extends, such as
  ``f"serving.slo.{outcome}"`` (a catalogued name nothing writes is a promise
  no scrape keeps);
* the CLI surface from ``repro.cli.build_parser()`` -> every subcommand
  (as ``repro.cli <name>``) and every long option must appear in
  ``docs/operations.md``, and every code span there that begins with ``--``
  must name a flag some subcommand defines (a removed flag the prose still
  offers is drift too);
* the wire op table ``repro.core.serialization.messages.OPS`` -> the table
  under ``## Request ops`` in ``docs/wire-protocol.md`` must state exactly its
  rows, in both directions: every op with its required fields, optional
  fields and reply key, and who answers it (``both`` / ``router`` / ``shard``
  / ``forwarded``, from the two connection classes' ``answers`` maps);
* the connection state table in ``docs/wire-protocol.md`` (the one headed
  ``## Connection state machine``) -> its message column must name exactly
  the ``repro.wire.FRAME_*`` kinds and its op column exactly ``hello`` plus
  ``REQUEST_OPS``, in both directions — the table claims to be the state
  machine, so it may not say more than the code either;
* the hello features ``repro.wire.FEATURES`` -> the table under ``###
  Features`` in ``docs/wire-protocol.md`` must name exactly those, in both
  directions (a documented feature no build grants is as wrong as a granted
  one nobody documented);
* the instruction table ``repro.core.instructions.INSTRUCTIONS`` -> the
  table under ``## The instruction table`` in ``docs/architecture.md`` must
  state exactly its rows, in both directions: every opcode with its arity,
  who emits it, its immediate, its scale rule and the ``BackendContext``
  methods its ``evaluate`` calls (found by calling it on a recording
  context);
* the ``[cluster]`` key table in ``docs/operations.md`` (under ``## Cluster
  config file``) -> its key column must name exactly ``EvaCluster``'s own
  keyword parameters and the ``ShardConfig`` fields, and its ``backend`` /
  ``fairness`` rows exactly the ``BackendSpec`` / ``FairnessPolicy`` fields,
  in both directions (a key the docs offer and the loader refuses is as wrong
  as a silent one);
* the shard lifecycle table in ``docs/operations.md`` (under ``## Shard
  lifecycle``) -> it must state exactly
  ``repro.serving.membership.TRANSITIONS``, in both directions: every
  ``(state, event)`` pair of the code with the state it leads to, and ``—``
  for every pair the machine refuses;
* the committed benchmark baselines (``BENCH_*.json`` at the repo root) ->
  every one must be listed (and gated) by ``benchmarks/gates.toml``, every
  manifest entry must point at files that exist, and every baseline's
  benchmark name must have gates in ``benchmarks/check_regression.py``.

Exit status 1 lists everything missing.  Run from anywhere::

    python tools/check_docs.py [--docs-dir docs]

Outside the tables and flags named above the check is one-directional: docs
may explain more than the code exposes, but never less.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def catalogue_metrics() -> list:
    """Metric names from the telemetry module docstring's ruler table."""
    from repro.serving import telemetry

    doc = telemetry.__doc__ or ""
    rulers = [
        index
        for index, line in enumerate(doc.splitlines())
        if re.match(r"^=+\s+=+", line.strip())
    ]
    if len(rulers) < 3:
        raise SystemExit(
            "telemetry docstring: expected a ====-ruled catalogue table "
            f"(found {len(rulers)} ruler lines)"
        )
    lines = doc.splitlines()[rulers[1] + 1 : rulers[2]]
    names = []
    for line in lines:
        first_column = re.split(r"\s{2,}", line.strip())[0]
        for token in first_column.split(" / "):
            token = token.strip()
            if token:
                names.append(token)
    if not names:
        raise SystemExit("telemetry docstring: catalogue table parsed empty")
    return names


def check_metric_writes(names: list, src: Path = REPO_ROOT / "src" / "repro") -> list:
    """Catalogued metric names with no write site under ``src``."""
    literals, heads = set(), set()
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.JoinedStr) and node.values:
                head = node.values[0]
                if isinstance(head, ast.Constant) and str(head.value).endswith("."):
                    heads.add(head.value)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
    complaints = []
    for name in names:
        stem = name[: -len(".*")] if name.endswith(".*") else name
        if stem not in literals and not any(stem.startswith(head) for head in heads):
            complaints.append(
                f"telemetry catalogue: metric {name!r} has no write site under src/repro"
            )
    return complaints


def cli_surface() -> list:
    """(subcommand, [long options]) pairs from the real argument parser."""
    from repro import cli

    parser = cli.build_parser()
    surface = []
    for action in parser._actions:
        if not isinstance(action, argparse._SubParsersAction):
            continue
        for name, sub in action.choices.items():
            options = sorted(
                {
                    option
                    for sub_action in sub._actions
                    for option in sub_action.option_strings
                    if option.startswith("--") and option != "--help"
                }
            )
            surface.append((name, options))
    if not surface:
        raise SystemExit("repro.cli.build_parser(): no subcommands found")
    return surface


def check_stale_flags(operations_doc: str) -> list:
    """Code spans of ``operations.md`` that begin with a flag no subcommand defines."""
    defined = {option for _name, options in cli_surface() for option in options}
    documented = {
        span.split()[0]
        for span in re.findall(r"`([^`\n]+)`", operations_doc)
        if span.startswith("--")
    }
    return [
        f"operations.md: flag {flag!r} is documented but no subcommand defines it"
        for flag in sorted(documented - defined)
    ]


def wire_ops() -> list:
    from repro.core.serialization import messages

    return sorted(messages.REQUEST_OPS)


def frame_kinds() -> list:
    from repro import wire

    return sorted(name for name in dir(wire) if name.startswith("FRAME_"))


def check_state_table(wire_doc: str) -> list:
    """The connection state table vs. the frame kinds and ops the code has."""
    section = wire_doc.partition("## Connection state machine")[2].partition("\n## ")[0]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|")
    ][2:]  # header and ruler
    if not rows:
        return ["wire-protocol.md: connection state table missing"]
    complaints = []
    for column, what, expected in (
        (0, "message kind", set(frame_kinds())),
        (1, "op", {"hello", *wire_ops()}),
    ):
        found = {
            token for row in rows for token in re.findall(r"`([^`]+)`", row[column])
        }
        for token in sorted(expected - found):
            complaints.append(f"wire-protocol.md: state table lacks {what} `{token}`")
        for token in sorted(found - expected):
            complaints.append(f"wire-protocol.md: state table names unknown {what} `{token}`")
    return complaints


def check_op_table(wire_doc: str) -> list:
    """The request op table vs. ``messages.OPS`` and the endpoints' answers."""
    from repro.core.serialization import messages
    from repro.serving import netserver

    section = wire_doc.partition("## Request ops")[2].partition("\n## ")[0]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|")
    ][2:]  # header and ruler
    documented = {}
    for row in rows:
        names = [re.findall(r"`([^`]+)`", cell) for cell in row[:4]]
        reply = None if row[3].startswith("—") else (names[3] or [""])[0]
        documented[names[0][0]] = (set(names[1]), set(names[2]), reply, row[4])
    complaints = [
        f"wire-protocol.md: op table names unknown op `{op}`"
        for op in sorted(set(documented) - set(messages.OPS))
    ]
    shard, router = netserver._ShardConnection.answers, netserver._RouterConnection.answers
    for op, row in messages.OPS.items():
        if op in shard and op in router:
            answered_by = "both"
        elif op in shard:
            answered_by = "forwarded" if row.forwarded else "shard"
        else:
            answered_by = "router"
        expected = (set(row.required), set(row.optional), row.reply, answered_by)
        if documented.get(op) != expected:
            complaints.append(
                f"wire-protocol.md: op table says `{op}` is {documented.get(op)}, "
                f"the code says {expected}"
            )
    for name in messages.COMMON_FIELDS:
        if f"`{name}`" not in section.partition("Every op may also carry")[2]:
            complaints.append(f"wire-protocol.md: common field `{name}` undocumented")
    return complaints


def backend_methods(row) -> list:
    """The ``BackendContext`` methods ``row.evaluate`` calls: with every
    operand encrypted, then (binary rows) with a plaintext second operand."""
    from repro.core.ir import Term
    from repro.core.types import Op, ValueType

    if row.evaluate is None:
        return []
    called = []

    class Recorder:
        def __getattr__(self, name):
            return lambda *args, **kwargs: called.append(name)

    kinds = [ValueType.CIPHER] * row.arity
    for case in [kinds] + ([kinds[:-1] + [ValueType.VECTOR]] if row.arity > 1 else []):
        term = Term(Op.UNDEFINED, [Term(Op.INPUT, (), kind) for kind in case], rotation=1)
        row.evaluate(Recorder(), term, [None] * row.arity)
    return list(dict.fromkeys(called))


def check_instruction_table(architecture_doc: str) -> list:
    """The instruction table vs. ``repro.core.instructions.INSTRUCTIONS``."""
    from repro.core.instructions import INSTRUCTIONS

    section = architecture_doc.partition("## The instruction table")[2].partition("\n## ")[0]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|")
    ][2:]  # header and ruler
    documented = {}
    for row in rows:
        names = [re.findall(r"`([^`]+)`", cell) for cell in row]
        immediate = names[3][0] if names[3] else None
        documented[names[0][0]] = (row[1], row[2], immediate, names[4][0], names[5])
    expected = {
        op.name: (str(row.arity), row.emitted_by, row.immediate, row.scale, backend_methods(row))
        for op, row in INSTRUCTIONS.items()
    }
    complaints = [
        f"architecture.md: instruction table names unknown opcode `{name}`"
        for name in sorted(set(documented) - set(expected))
    ]
    for name, columns in expected.items():
        if documented.get(name) != columns:
            complaints.append(
                f"architecture.md: instruction table says `{name}` is {documented.get(name)}, "
                f"the code says {columns}"
            )
    return complaints


def check_feature_table(wire_doc: str) -> list:
    """The hello feature table vs. ``repro.wire.FEATURES``."""
    from repro import wire

    section = wire_doc.partition("### Features")[2].partition("\n## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]
    found = {token for row in rows for token in re.findall(r"`([^`]+)`", row.split("|")[1])}
    expected = set(wire.FEATURES)
    complaints = [
        f"wire-protocol.md: feature table lacks `{name}`" for name in sorted(expected - found)
    ]
    complaints += [
        f"wire-protocol.md: feature table names unknown feature `{name}`"
        for name in sorted(found - expected)
    ]
    return complaints


def cluster_config_keys() -> dict:
    """What a ``[cluster]`` table takes: ``{"": keys, "backend": fields, "fairness": fields}``."""
    import dataclasses
    import inspect

    from repro.serving import cluster, quotas

    parameters = inspect.signature(cluster.EvaCluster.__init__).parameters.values()
    own = {p.name for p in parameters if p.name != "self" and p.kind is not p.VAR_KEYWORD}
    recipe = {field.name for field in dataclasses.fields(cluster.ShardConfig)}
    return {
        "": own | recipe,
        "backend": {field.name for field in dataclasses.fields(cluster.BackendSpec)},
        "fairness": {field.name for field in dataclasses.fields(quotas.FairnessPolicy)},
    }


def check_cluster_table(operations_doc: str) -> list:
    """The ``[cluster]`` key table vs. the keywords the cluster config takes."""
    section = operations_doc.partition("## Cluster config file")[2].partition("\n## ")[0]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|")
    ][2:]  # header and ruler
    if not rows:
        return ["operations.md: [cluster] key table missing"]
    documented = {"": set()}
    for row in rows:
        keys = re.findall(r"`([^`]+)`", row[0])
        documented[""].update(keys)
        for key in keys:
            documented[key] = {
                name for name in re.findall(r"`([^`]+)`", row[1]) if re.fullmatch(r"[a-z_]+", name)
            }
    complaints = []
    for table, expected in cluster_config_keys().items():
        where = "[cluster] table" if not table else f"[cluster] `{table}` row"
        found = documented.get(table, set())
        complaints += [f"operations.md: {where} lacks `{k}`" for k in sorted(expected - found)]
        complaints += [
            f"operations.md: {where} names `{k}`, which the code does not take"
            for k in sorted(found - expected)
        ]
    return complaints


def check_lifecycle_table(operations_doc: str) -> list:
    """The shard lifecycle table vs. ``membership.TRANSITIONS``."""
    from repro.serving import membership

    section = operations_doc.partition("## Shard lifecycle")[2].partition("\n## ")[0]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|")
    ]
    if len(rows) < 3:
        return ["operations.md: shard lifecycle table missing"]
    # One column per state, named in the header; the unnamed one is "no such shard".
    columns = {}
    for position, cell in enumerate(rows[0][1:], start=1):
        named = [state for state in membership.STATES if f"`{state}`" in cell]
        if named or position == 1:
            columns[position] = named[0] if named else None
    documented = {}
    for row in rows[2:]:
        (event,) = re.findall(r"`([^`]+)`", row[0])[:1] or [row[0]]
        for position, state in columns.items():
            target = re.findall(r"`([^`]+)`", row[position])
            if target:
                documented[(state, event)] = target[0]
    complaints = []
    for (state, event), target in sorted(membership.TRANSITIONS.items(), key=repr):
        found = documented.pop((state, event), None)
        if found != target:
            complaints.append(
                f"operations.md: lifecycle table says ({state}, {event}) -> {found}, "
                f"the code says {target}"
            )
    for (state, event), target in sorted(documented.items(), key=repr):
        complaints.append(
            f"operations.md: lifecycle table has ({state}, {event}) -> {target}, "
            "which the code refuses"
        )
    return complaints


def _load_benchmarks_module(name: str):
    """Import a module from benchmarks/ (a script directory, not a package)."""
    import importlib.util

    path = REPO_ROOT / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_gates_manifest() -> list:
    """Cross-check committed BENCH_*.json baselines against gates.toml."""
    import json

    complaints = []
    run_gates = _load_benchmarks_module("run_gates")
    check_regression = _load_benchmarks_module("check_regression")
    try:
        gates = run_gates.load_manifest()
    except Exception as exc:  # malformed manifest is itself drift
        return [f"gates.toml: {exc}"]

    baselines = {entry["baseline"]: name for name, entry in gates.items()}
    for path in sorted(REPO_ROOT.glob("BENCH_*.json")):
        if path.name not in baselines:
            complaints.append(
                f"gates.toml: committed baseline {path.name} has no gate entry"
            )
    for name, entry in gates.items():
        for field in ("script", "baseline"):
            if not (REPO_ROOT / entry[field]).is_file():
                complaints.append(
                    f"gates.toml: gate {name!r} {field} {entry[field]!r} "
                    "does not exist"
                )
        baseline_path = REPO_ROOT / entry["baseline"]
        if baseline_path.is_file():
            payload = json.loads(baseline_path.read_text(encoding="utf-8"))
            bench_name = payload.get("benchmark")
            if bench_name not in check_regression.GATES:
                complaints.append(
                    f"gates.toml: gate {name!r} baseline declares benchmark "
                    f"{bench_name!r}, which has no GATES entry in "
                    "check_regression.py"
                )
    return complaints


def check(docs_dir: Path) -> list:
    """Returns a list of human-readable drift complaints (empty = clean)."""
    missing = []

    def read(name: str) -> str:
        path = docs_dir / name
        if not path.is_file():
            missing.append(f"{name}: file missing from {docs_dir}")
            return ""
        return path.read_text(encoding="utf-8")

    metrics_doc = read("metrics.md")
    for metric in catalogue_metrics():
        if metric not in metrics_doc:
            missing.append(f"metrics.md: metric {metric!r} undocumented")
    missing.extend(check_metric_writes(catalogue_metrics()))

    operations_doc = read("operations.md")
    for subcommand, options in cli_surface():
        if f"repro.cli {subcommand}" not in operations_doc:
            missing.append(
                f"operations.md: subcommand 'repro.cli {subcommand}' undocumented"
            )
        for option in options:
            if option not in operations_doc:
                missing.append(
                    f"operations.md: {subcommand} flag {option!r} undocumented"
                )

    if operations_doc:
        missing.extend(check_stale_flags(operations_doc))
        missing.extend(check_cluster_table(operations_doc))
        missing.extend(check_lifecycle_table(operations_doc))

    architecture_doc = read("architecture.md")
    if architecture_doc:
        missing.extend(check_instruction_table(architecture_doc))

    wire_doc = read("wire-protocol.md")
    if wire_doc:
        missing.extend(check_op_table(wire_doc))
        missing.extend(check_state_table(wire_doc))
        missing.extend(check_feature_table(wire_doc))

    missing.extend(check_gates_manifest())

    return missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when docs/ stops mentioning a metric, CLI flag, or wire op."
    )
    parser.add_argument(
        "--docs-dir",
        type=Path,
        default=REPO_ROOT / "docs",
        help="documentation tree to check (default: <repo>/docs)",
    )
    args = parser.parse_args(argv)
    missing = check(args.docs_dir)
    if missing:
        print(f"DOCS DRIFT: {len(missing)} undocumented item(s):", file=sys.stderr)
        for item in missing:
            print(f"  {item}", file=sys.stderr)
        return 1
    print(f"docs drift gate ok ({args.docs_dir})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
