#!/usr/bin/env python
"""Surface gate: the two counts the simplicity track is judged by, from the code.

"Lines of ``src/``" and "options" have been quoted from PR to PR without a way
to re-derive them.  This script prints both from the checkout it is pointed at:

* **lines** — ``wc -l`` over ``src/**/*.py``, per package and in total;
* **options** — every knob *defined in code*: the parameters of the counted
  constructors (``EvaServer``, ``JobEngine``, ``EvaCluster`` — its own
  parameters plus, where it takes ``**recipe``, the fields of the
  ``ShardConfig`` recipe those keywords become — ``EvaluationEngine`` and
  ``Evaluator``; via ``inspect.signature`` / ``dataclasses.fields``), each
  field of the config objects those take (``CompilerOptions``,
  ``FairnessPolicy``, ``BackendSpec``: a field is an
  independently settable value like any parameter), the long flags of
  every ``repro.cli`` subcommand (``build_parser()``; a flag two
  subcommands share counts twice, it is spelled twice), and the
  ``os.environ`` reads under ``src/``.  ``options_without_config_fields`` is
  the total on the basis quoted up to PR 22, which left the fields out.

``--check`` compares the totals with the ceilings committed under
``[tool.repro.surface]`` in ``pyproject.toml`` and exits 1 when either is
exceeded: growing the surface is a decision, made by raising a ceiling in the
same diff.  ``--root`` points at another checkout (a clone of the parent
commit), so a PR can quote before and after::

    python tools/surface.py [--check] [--root /path/to/checkout]
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import json
import re
import sys
from pathlib import Path

#: (module, class) of every constructor whose parameters count as options.
COUNTED_CONSTRUCTORS = (
    ("repro.serving.server", "EvaServer"),
    ("repro.serving.jobs", "JobEngine"),
    ("repro.serving.cluster", "EvaCluster"),
    ("repro.core.executor", "EvaluationEngine"),
    ("repro.ckks.evaluator", "Evaluator"),
)

#: (module, class) of every config dataclass whose fields count as options.
COUNTED_CONFIG_OBJECTS = (
    ("repro.core.compiler", "CompilerOptions"),
    ("repro.serving.quotas", "FairnessPolicy"),
    ("repro.serving.cluster", "BackendSpec"),
)

_ENVIRON_READ = re.compile(r"os\.environ|os\.getenv|\bgetenv\(")


def line_counts(src: Path) -> dict:
    """Lines per top-level package of ``src/repro`` (modules count as ``repro``)."""
    counts: dict = {}
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).parts
        package = ".".join(parts[:2]) if len(parts) > 2 else parts[0]
        with open(path, "rb") as handle:
            counts[package] = counts.get(package, 0) + sum(1 for _line in handle)
    return counts


def constructor_options() -> dict:
    """Parameter names per counted constructor (``self`` and ``**kw`` excluded)."""
    options = {}
    for module_name, class_name in COUNTED_CONSTRUCTORS:
        cls = getattr(importlib.import_module(module_name), class_name)
        parameters = inspect.signature(cls.__init__).parameters.values()
        names = [
            p.name
            for p in parameters
            if p.name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]
        if any(p.kind is p.VAR_KEYWORD for p in parameters) and class_name == "EvaCluster":
            recipe = importlib.import_module(module_name).ShardConfig
            names += [f"recipe.{field.name}" for field in dataclasses.fields(recipe)]
        options[class_name] = names
    return options


def config_fields() -> dict:
    """Field names per counted config object."""
    configs = {}
    for module_name, class_name in COUNTED_CONFIG_OBJECTS:
        cls = getattr(importlib.import_module(module_name), class_name)
        configs[class_name] = [field.name for field in dataclasses.fields(cls)]
    return configs


def cli_flags() -> dict:
    """Long flags per ``repro.cli`` subcommand."""
    from repro import cli

    flags = {}
    for action in cli.build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                flags[name] = sorted(
                    option
                    for sub_action in sub._actions
                    for option in sub_action.option_strings
                    if option.startswith("--") and option != "--help"
                )
    return flags


def environ_reads(src: Path) -> list:
    """``file:line`` of every environment read under ``src/``."""
    reads = []
    for path in sorted(src.rglob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if _ENVIRON_READ.search(line):
                reads.append(f"{path.relative_to(src)}:{number}")
    return reads


def measure(root: Path) -> dict:
    """The whole report for the checkout at ``root`` (whose ``src/`` must be
    the ``repro`` on ``sys.path``: :func:`main` puts it there)."""
    src = root / "src"
    constructors, configs, flags = constructor_options(), config_fields(), cli_flags()
    lines, environ = line_counts(src), environ_reads(src)
    flag_count = sum(len(names) for names in flags.values())
    old_basis = sum(len(names) for names in constructors.values()) + flag_count + len(environ)
    return {
        "src_lines": sum(lines.values()),
        "src_lines_by_package": lines,
        "options": old_basis + sum(len(names) for names in configs.values()),
        "options_without_config_fields": old_basis,
        "constructor_parameters": {name: len(names) for name, names in constructors.items()},
        "config_fields": {name: len(names) for name, names in configs.items()},
        "cli_flags": {name: len(names) for name, names in flags.items()},
        "cli_flags_total": flag_count,
        "cli_flags_distinct": len({flag for names in flags.values() for flag in names}),
        "environ_reads": environ,
    }


def ceilings(root: Path) -> dict:
    """``[tool.repro.surface]`` of ``pyproject.toml`` (just that table: the rest
    of the file uses TOML the 3.10 fallback parser does not read)."""
    text = (root / "pyproject.toml").read_text(encoding="utf-8")
    table = text.partition("[tool.repro.surface]\n")[2].partition("\n[")[0]
    if not table.strip():
        raise SystemExit("pyproject.toml: no [tool.repro.surface] ceilings")
    from repro import tomlcompat

    return tomlcompat.loads(table)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--check", action="store_true", help="fail past the committed ceilings")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.root / "src"))
    report = measure(args.root)
    print(json.dumps(report, indent=2))
    if not args.check:
        return 0
    limits = ceilings(args.root)
    over = [
        f"{key} = {report[key]} exceeds the ceiling {limits[f'max_{key}']}"
        for key in ("src_lines", "options")
        if report[key] > limits[f"max_{key}"]
    ]
    for complaint in over:
        print(f"SURFACE: {complaint} ([tool.repro.surface] in pyproject.toml)", file=sys.stderr)
    if not over:
        print(f"surface gate ok (src_lines <= {limits['max_src_lines']}, "
              f"options <= {limits['max_options']})", file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
