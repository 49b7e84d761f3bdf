"""Lowering passes: expansion of high-level opcodes into core opcodes.

These passes run before the FHE-specific insertion passes so that the latter
(and the validator, parameter selection, and rotation-key selection) only ever
see the core opcode set of Table 2.
"""

from __future__ import annotations

from ..instructions import immediate_of
from ..ir import GraphEditor, Program, Term
from ..types import Op
from .framework import PassContext, RewritePass


class ExpandSumPass(RewritePass):
    """Expand SUM into a logarithmic rotate-and-add tree.

    ``SUM(x)`` places the sum of all ``vec_size`` elements of ``x`` into every
    slot.  The standard batching idiom is ``log2(vec_size)`` rounds of
    ``x = x + rotate_left(x, 2^i)``, which is what this pass emits; the
    resulting rotations then participate in rotation-key selection.
    """

    name = "expand-sum"
    direction = "forward"

    def run(self, program: Program, context: PassContext) -> int:
        editor = GraphEditor(program)
        rewrites = 0
        for term in program.terms():
            if term.op is not Op.SUM:
                continue
            acc = term.args[0]
            shift = 1
            while shift < program.vec_size:
                rotated = Term(
                    Op.ROTATE_LEFT, [acc], acc.value_type, rotation=shift
                )
                acc = Term(Op.ADD, [acc, rotated], acc.value_type)
                if term.kernel is not None:
                    rotated.attributes["kernel"] = term.kernel
                    acc.attributes["kernel"] = term.kernel
                shift *= 2
            editor.replace_term(term, acc)
            rewrites += 1
        return rewrites


class RemoveCopyPass(RewritePass):
    """Remove COPY and zero-step rotations; they are identities."""

    name = "remove-copy"
    direction = "forward"

    def run(self, program: Program, context: PassContext) -> int:
        editor = GraphEditor(program)
        rewrites = 0
        for term in program.terms():
            is_copy = term.op is Op.COPY
            is_null_rotation = immediate_of(term.op) == "rotation" and (
                term.rotation % program.vec_size == 0
            )
            if not (is_copy or is_null_rotation):
                continue
            editor.replace_term(term, term.args[0])
            rewrites += 1
        return rewrites
