"""Cleanup passes: constant folding, common-subexpression elimination, DCE.

These are not described in the paper but are standard compiler hygiene that
keeps frontend-generated programs (especially the tensor-kernel generated DNN
programs) small before the FHE-specific passes run.  They operate purely on
plaintext-valued subgraphs and structural redundancy, so they never change the
program's reference semantics.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..analysis.scales import scale_of
from ..instructions import immediate_of
from ..ir import GraphEditor, Program, Term
from ..types import ValueType
from .framework import PassContext, RewritePass


class ConstantFoldingPass(RewritePass):
    """Replace plaintext instructions whose arguments are all constants.

    The value is the row's reference semantics on the constants (a constant
    shorter than ``vec_size`` is one period of the vector it denotes), and
    its scale the row's scale rule.
    """

    name = "constant-folding"
    direction = "forward"

    def run(self, program: Program, context: PassContext) -> int:
        editor = GraphEditor(program)
        values: Dict[int, np.ndarray] = {}
        scales: Dict[int, float] = {}
        rewrites = 0
        for term in program.terms():
            if term.is_constant:
                values[term.id] = np.asarray(term.value, dtype=np.float64)
                scales[term.id] = float(term.scale or 0.0)
                continue
            if (
                term.is_instruction
                and term.value_type is not ValueType.CIPHER
                and all(a.id in values for a in term.args)
            ):
                args = [values[a.id] for a in term.args]
                value = term.instruction.reference(term, args, program.vec_size)
                scale = scale_of(term, scales)
                folded = program.constant(value, scale=scale)
                values[folded.id] = np.asarray(value, dtype=np.float64)
                scales[folded.id] = scale
                editor.replace_term(term, folded)
                rewrites += 1
        return rewrites


def _structural_key(term: Term) -> Tuple:
    """Hashable key identifying structurally identical instructions."""
    immediate = immediate_of(term.op)
    return (term.op, tuple(a.id for a in term.args), immediate and getattr(term, immediate))


class CommonSubexpressionEliminationPass(RewritePass):
    """Deduplicate structurally identical instructions (same op, args, attrs)."""

    name = "cse"
    direction = "forward"
    until_quiescence = True

    def run(self, program: Program, context: PassContext) -> int:
        editor = GraphEditor(program)
        seen: Dict[Tuple, Term] = {}
        rewrites = 0
        for term in program.terms():
            if not term.is_instruction:
                continue
            key = _structural_key(term)
            existing = seen.get(key)
            if existing is None:
                seen[key] = term
            elif existing is not term:
                editor.replace_term(term, existing)
                rewrites += 1
        return rewrites


class DeadCodeEliminationPass(RewritePass):
    """Report how many declared inputs are unreachable from the outputs.

    The in-memory representation only ever materializes terms reachable from
    the outputs, so structural dead code cannot exist; this pass exists to
    surface inputs that were declared but never used (a frequent frontend
    mistake the compiler warns about).
    """

    name = "dce"
    direction = "backward"

    def run(self, program: Program, context: PassContext) -> int:
        reachable = {t.id for t in program.terms()}
        unused = [name for name, term in program.inputs.items() if term.id not in reachable]
        context.extra.setdefault("unused_inputs", []).extend(unused)
        return 0
