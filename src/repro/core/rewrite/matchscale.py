"""MATCH-SCALE pass (Section 5.3, Figure 4).

ADD and SUB require their ciphertext operands to be encoded at the same scale
(Constraint 2).  Rather than introducing additional RESCALE or MOD_SWITCH
operations — which would lengthen the modulus chain — the pass multiplies the
smaller-scale operand by the constant 1 encoded at exactly the scale
difference, so both operands reach the larger scale (the paper's x²+x example,
Figure 3c).
"""

from __future__ import annotations

from typing import Dict

from ..analysis.scales import scale_of
from ..ir import GraphEditor, Program, Term
from ..types import Op, ValueType
from .framework import PassContext, RewritePass

_EPS = 1e-9


class MatchScalePass(RewritePass):
    """Equalize the scales of ciphertext operands of ADD/SUB."""

    name = "match-scale"
    direction = "forward"

    def run(self, program: Program, context: PassContext) -> int:
        editor = GraphEditor(program)
        scales: Dict[int, float] = {}
        rewrites = 0
        for term in program.terms():
            scales[term.id] = scale_of(term, scales)
            if term.is_root or term.instruction.scale != "matched":
                continue
            cipher_args = [a for a in term.args if a.value_type is ValueType.CIPHER]
            if len(cipher_args) < 2:
                continue
            a, b = cipher_args[0], cipher_args[1]
            sa, sb = scales[a.id], scales[b.id]
            if abs(sa - sb) <= _EPS:
                continue
            small, large = (a, b) if sa < sb else (b, a)
            diff = abs(sa - sb)
            one = program.constant(1.0, scale=diff, value_type=ValueType.SCALAR)
            scales[one.id] = diff
            boost = Term(Op.MULTIPLY, [small, one], ValueType.CIPHER)
            if term.kernel is not None:
                boost.attributes["kernel"] = term.kernel
            scales[boost.id] = scales[small.id] + diff
            editor.replace_arg(term, small, boost)
            scales[term.id] = max(scales[a.id], scales[b.id], scales[boost.id])
            rewrites += 1
        return rewrites
