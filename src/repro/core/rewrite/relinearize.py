"""RELINEARIZE insertion pass (Section 5.2, Figure 4).

Multiplying two ciphertexts (each with two polynomials) produces a ciphertext
with three polynomials.  To satisfy Constraint 3 — every MULTIPLY operand must
have exactly two polynomials — a RELINEARIZE is inserted directly after every
ciphertext-ciphertext MULTIPLY, before any of its consumers.  This simple
policy guarantees a single relinearization key suffices for the whole program;
optimal placement is NP-hard and left as future work in the paper.

The pass then sums before relinearizing: ``RELINEARIZE(a) ± RELINEARIZE(b)``
becomes ``RELINEARIZE(a ± b)`` (:func:`~.framework.sink_below_sums`), one key
switch instead of two; three-polynomial ciphertexts add like any others.
"""

from __future__ import annotations

from typing import Dict

from ..ir import GraphEditor, Program, Term
from ..types import Op, ValueType
from .framework import PassContext, RewritePass, sink_below_sums


class RelinearizePass(RewritePass):
    """Insert RELINEARIZE after every ciphertext-ciphertext MULTIPLY."""

    name = "relinearize"
    direction = "forward"

    def run(self, program: Program, context: PassContext) -> int:
        editor = GraphEditor(program)
        terms = program.terms()
        # Whether a value reaches a RELINEARIZE through sums (idempotence).
        relinearized: Dict[int, bool] = {}
        for term in reversed(terms):
            relinearized[term.id] = any(
                c.op is Op.RELINEARIZE or (c.instruction.scale == "matched" and relinearized[c.id])
                for c in editor.consumers(term)
            )
        rewrites = 0
        for term in terms:
            cipher_product = term.op is Op.MULTIPLY and all(
                a.value_type is ValueType.CIPHER for a in term.args
            )
            if not cipher_product or relinearized[term.id]:
                continue
            node = Term(Op.RELINEARIZE, [term], ValueType.CIPHER)
            if term.kernel is not None:
                node.attributes["kernel"] = term.kernel
            editor.insert_after(term, node)
            rewrites += 1
        return rewrites + sink_below_sums(program, Op.RELINEARIZE)
