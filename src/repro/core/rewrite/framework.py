"""Graph rewriting framework (Section 5.1).

Each transformation of the compiler is a :class:`RewritePass`.  A pass walks
the program graph in a forward (roots-to-leaves) or backward (leaves-to-roots)
schedule and applies a local rewrite rule at each node; the framework supplies
the schedule, a :class:`~repro.core.ir.GraphEditor` for structural edits, and
repetition until quiescence for passes that need multiple sweeps.

The :class:`PassManager` chains passes, records per-pass statistics, and is
what the compiler driver (Algorithm 1's ``Transform`` step) runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..instructions import INSTRUCTIONS
from ..ir import GraphEditor, Program, Term
from ..types import Op, ValueType


@dataclass
class PassReport:
    """Statistics for one executed pass."""

    name: str
    changed: bool
    rewrites: int
    seconds: float


@dataclass
class PassContext:
    """Options and shared state threaded through the passes of one compilation."""

    max_rescale_bits: float = 60.0
    #: Minimum post-rescale scale in bits (the waterline ``s_w``); filled in by
    #: the compiler from the maximum root scale when left as ``None``.
    waterline_bits: Optional[float] = None
    #: Fixed rescale value (bits) used by the rescale passes; defaults to
    #: ``max_rescale_bits`` (the paper's second key insight).
    rescale_bits: Optional[float] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def effective_rescale_bits(self) -> float:
        return self.rescale_bits if self.rescale_bits is not None else self.max_rescale_bits


class RewritePass:
    """Base class for graph transformation passes.

    Subclasses implement :meth:`run`, which may freely restructure the program
    using a :class:`GraphEditor`, and return the number of rewrites applied.
    ``direction`` is informational ("forward" or "backward") and documents the
    schedule the pass uses, matching the paper's description of each rule.
    """

    name: str = "rewrite"
    direction: str = "forward"
    #: When True the pass manager re-runs the pass until it reports no rewrites.
    until_quiescence: bool = False

    def run(self, program: Program, context: PassContext) -> int:
        raise NotImplementedError

    def __call__(self, program: Program, context: PassContext) -> int:
        return self.run(program, context)


class PassManager:
    """Runs an ordered list of passes over a program and records reports."""

    def __init__(self, passes: Iterable[RewritePass]):
        self.passes: List[RewritePass] = list(passes)
        self.reports: List[PassReport] = []

    def run(self, program: Program, context: Optional[PassContext] = None) -> List[PassReport]:
        context = context or PassContext()
        self.reports = []
        for pass_ in self.passes:
            start = time.perf_counter()
            total = 0
            while True:
                rewrites = pass_.run(program, context)
                total += rewrites
                if not pass_.until_quiescence or rewrites == 0:
                    break
            elapsed = time.perf_counter() - start
            self.reports.append(
                PassReport(pass_.name, changed=total > 0, rewrites=total, seconds=elapsed)
            )
        return self.reports


def waterline_of(program: Program) -> float:
    """The waterline ``s_w``: the maximum scale among all inputs and constants."""
    scales = [
        float(t.scale)
        for t in program.terms()
        if t.is_root and t.scale is not None
    ]
    return max(scales) if scales else 0.0


def sink_below_sums(program: Program, op: Op) -> int:
    """Rewrite ``ADD/SUB(op(a), op(b))`` into ``op(ADD/SUB(a, b))`` until none is left.

    Only for two distinct ``op`` terms with one immediate (a RESCALE's
    divisor), each used by the sum alone and neither an output: a firing
    removes one ``op`` and duplicates nothing.  The new ``op`` takes the
    sum's kernel label.  One sweep in topological order is the fixpoint: a
    firing changes only what the sum's consumers, still ahead, see.
    """
    key = INSTRUCTIONS[op].immediate
    editor = GraphEditor(program)
    outputs = {term.id for term in program.outputs.values()}
    fired = 0
    for term in program.terms():
        if term.is_root or term.instruction.scale != "matched":
            continue
        x, y = term.args
        alike = x.op is op and y.op is op and x.attributes.get(key) == y.attributes.get(key)
        sole = all(t.id not in outputs and len(editor.uses[t.id]) == 1 for t in (x, y))
        if x is y or not alike or not sole:
            continue
        for old in (x, y):
            editor.uses[old.args[0].id].remove(old)
            editor.replace_arg(term, old, old.args[0])
        node = Term(op, [term], ValueType.CIPHER)
        if key:
            node.attributes[key] = x.attributes[key]
        if term.kernel is not None:
            node.attributes["kernel"] = term.kernel
        editor.insert_after(term, node)
        fired += 1
    return fired
