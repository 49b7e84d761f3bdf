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

from ..ir import GraphEditor, Program, Term
from ..types import Op, ValueType
from .framework import PassContext, RewritePass


def _tile_common(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Tile two periodic plaintext vectors to their common (lcm) length.

    Constants of different lengths denote the same value replicated at
    different periods (Section 3's input replication); a binary operation on
    them is well-defined on the common period.  Lane masks (length = lane
    width) meeting shorter constants is the common case.
    """
    a = np.atleast_1d(a)
    b = np.atleast_1d(b)
    if a.size == b.size:
        return a, b
    target = int(np.lcm(a.size, b.size))
    return np.tile(a, target // a.size), np.tile(b, target // b.size)


def _evaluate_plain(term: Term, values: Dict[int, np.ndarray], vec_size: int) -> np.ndarray:
    """Evaluate a plaintext instruction on the numeric values of its arguments.

    A value shorter than ``vec_size`` is one period of the vector it denotes.
    """
    args = [values[a.id] for a in term.args]
    if term.op is Op.NEGATE:
        return -args[0]
    if term.op is Op.ADD:
        return np.add(*_tile_common(args[0], args[1]))
    if term.op is Op.SUB:
        return np.subtract(*_tile_common(args[0], args[1]))
    if term.op is Op.MULTIPLY:
        return np.multiply(*_tile_common(args[0], args[1]))
    if term.op is Op.COPY:
        return args[0]
    if term.op is Op.SUM:
        # SUM adds all vec_size slots: every repetition of the period counts.
        period = np.atleast_1d(args[0])
        return np.full(1, np.sum(period) * (vec_size // period.size))
    # Rolling one period is rolling the periodic vector (np.roll reduces the
    # step modulo the period, which divides vec_size).
    if term.op is Op.ROTATE_LEFT:
        return np.roll(np.atleast_1d(args[0]), -term.rotation)
    if term.op is Op.ROTATE_RIGHT:
        return np.roll(np.atleast_1d(args[0]), term.rotation)
    raise ValueError(f"cannot fold opcode {term.op.name}")


_FOLDABLE = {
    Op.NEGATE,
    Op.ADD,
    Op.SUB,
    Op.MULTIPLY,
    Op.COPY,
    Op.SUM,
    Op.ROTATE_LEFT,
    Op.ROTATE_RIGHT,
}


class ConstantFoldingPass(RewritePass):
    """Replace plaintext instructions whose arguments are all constants."""

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
                and term.op in _FOLDABLE
                and term.value_type is not ValueType.CIPHER
                and all(a.id in values for a in term.args)
            ):
                value = _evaluate_plain(term, values, program.vec_size)
                if term.op is Op.MULTIPLY:
                    scale = sum(scales[a.id] for a in term.args)
                else:
                    scale = max(scales[a.id] for a in term.args)
                folded = program.constant(value, scale=scale)
                values[folded.id] = np.asarray(value, dtype=np.float64)
                scales[folded.id] = scale
                editor.replace_term(term, folded)
                rewrites += 1
        return rewrites


def _structural_key(term: Term) -> Tuple:
    """Hashable key identifying structurally identical instructions."""
    attrs: Tuple = ()
    if term.op.is_rotation:
        attrs = ("rot", term.rotation)
    elif term.op is Op.RESCALE:
        attrs = ("rescale", term.rescale_value)
    return (term.op, tuple(a.id for a in term.args), attrs)


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
