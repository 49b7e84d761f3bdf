"""WATERLINE-RESCALE insertion (Section 5.3, Figure 4).

The paper's policy: rescale always by the maximum allowed value ``s_f`` and
only when the resulting scale stays at or above the waterline ``s_w`` (the
maximum scale of any program root).  This minimizes the number of RESCALE
operations on any path and hence the modulus-chain length (the paper's
optimality argument).  The paper's ALWAYS-RESCALE has no pass of its own: the
CHET baseline is this pass with the waterline as its rescale value.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.scales import scale_of
from ..ir import GraphEditor, Program, Term
from ..types import Op, ValueType
from .framework import PassContext, RewritePass, waterline_of

#: Numerical slack (bits) when comparing scales.
_EPS = 1e-9


class WaterlineRescalePass(RewritePass):
    """Insert RESCALE by ``s_f`` only while the result stays above the waterline.

    Figure 4, WATERLINE-RESCALE: for a MULTIPLY whose result scale ``s_n``
    satisfies ``s_n - s_f >= s_w``, insert a RESCALE by ``s_f``.  The rule is
    applied repeatedly (the inserted RESCALE's result may itself still exceed
    ``s_w + s_f`` for very large operand scales).
    """

    name = "waterline-rescale"
    direction = "forward"

    def run(self, program: Program, context: PassContext) -> int:
        editor = GraphEditor(program)
        waterline = (
            context.waterline_bits
            if context.waterline_bits is not None
            else waterline_of(program)
        )
        rescale_bits = float(context.effective_rescale_bits())
        scales: Dict[int, float] = {}
        rewrites = 0
        for term in program.terms():
            scales[term.id] = scale_of(term, scales)
            if term.op is not Op.MULTIPLY or term.value_type is not ValueType.CIPHER:
                continue
            current = term
            while scales[current.id] - rescale_bits >= waterline - _EPS:
                node = Term(Op.RESCALE, [current], ValueType.CIPHER, rescale_value=rescale_bits)
                if term.kernel is not None:
                    node.attributes["kernel"] = term.kernel
                editor.insert_after(current, node)
                scales[node.id] = scales[current.id] - rescale_bits
                current = node
                rewrites += 1
        return rewrites
