"""RESCALE insertion passes (Section 5.3, Figure 4).

Two policies are provided:

* :class:`AlwaysRescalePass` — the naive policy: insert a RESCALE after every
  MULTIPLY, dividing by the smaller operand scale.  Defined in the paper for
  exposition and used here as the CHET-like baseline policy.
* :class:`WaterlineRescalePass` — the paper's policy: rescale always by the
  maximum allowed value ``s_f`` and only when the resulting scale stays at or
  above the waterline ``s_w`` (the maximum scale of any program root).  This
  minimizes the number of RESCALE operations on any path and hence the
  modulus-chain length (the paper's optimality argument).
"""

from __future__ import annotations

from typing import Dict

from ..analysis.scales import scale_of
from ..ir import GraphEditor, Program, Term
from ..types import Op, ValueType
from .framework import PassContext, RewritePass, waterline_of

#: Numerical slack (bits) when comparing scales.
_EPS = 1e-9


class _RescaleInsertionBase(RewritePass):
    """Shared machinery: forward sweep with incremental scale tracking."""

    direction = "forward"

    def run(self, program: Program, context: PassContext) -> int:
        editor = GraphEditor(program)
        scales: Dict[int, float] = {}
        rewrites = 0
        for term in program.terms():
            scales[term.id] = scale_of(term, scales)
            if term.op is Op.MULTIPLY and term.value_type is ValueType.CIPHER:
                rewrites += self._maybe_rescale(program, editor, term, scales, context)
        return rewrites

    def _insert_rescale(
        self,
        program: Program,
        editor: GraphEditor,
        term: Term,
        scales: Dict[int, float],
        rescale_bits: float,
    ) -> Term:
        node = Term(Op.RESCALE, [term], ValueType.CIPHER, rescale_value=float(rescale_bits))
        if term.kernel is not None:
            node.attributes["kernel"] = term.kernel
        editor.insert_after(term, node)
        scales[node.id] = scales[term.id] - float(rescale_bits)
        return node

    def _maybe_rescale(
        self,
        program: Program,
        editor: GraphEditor,
        term: Term,
        scales: Dict[int, float],
        context: PassContext,
    ) -> int:
        raise NotImplementedError


class AlwaysRescalePass(_RescaleInsertionBase):
    """Insert a RESCALE after every ciphertext MULTIPLY (Figure 4, ALWAYS-RESCALE).

    The rescale value is the minimum of the operand scales, which brings the
    result back to the larger operand's scale.  This is the per-multiply
    policy expert-written kernels (and the CHET baseline) use.
    """

    name = "always-rescale"

    def _maybe_rescale(self, program, editor, term, scales, context) -> int:
        rescale_bits = min(
            self._scale_of_arg(arg, scales) for arg in term.args
        )
        rescale_bits = min(rescale_bits, context.max_rescale_bits)
        if rescale_bits <= _EPS:
            return 0
        self._insert_rescale(program, editor, term, scales, rescale_bits)
        return 1

    @staticmethod
    def _scale_of_arg(arg: Term, scales: Dict[int, float]) -> float:
        return scales[arg.id]


class WaterlineRescalePass(_RescaleInsertionBase):
    """Insert RESCALE by ``s_f`` only while the result stays above the waterline.

    Figure 4, WATERLINE-RESCALE: for a MULTIPLY whose result scale ``s_n``
    satisfies ``s_n - s_f >= s_w``, insert a RESCALE by ``s_f``.  The rule is
    applied repeatedly (the inserted RESCALE's result may itself still exceed
    ``s_w + s_f`` for very large operand scales).
    """

    name = "waterline-rescale"

    def _maybe_rescale(self, program, editor, term, scales, context) -> int:
        waterline = (
            context.waterline_bits
            if context.waterline_bits is not None
            else waterline_of(program)
        )
        rescale_bits = context.effective_rescale_bits()
        rewrites = 0
        current = term
        while scales[current.id] - rescale_bits >= waterline - _EPS:
            current = self._insert_rescale(program, editor, current, scales, rescale_bits)
            rewrites += 1
        return rewrites
