"""Fixed-point scale analysis.

Computes the scale (in bits, i.e. ``log2`` of the fixed-point scaling factor)
of every term in a program, following the semantics of RNS-CKKS.  Inputs and
constants carry their declared scale; an instruction's scale follows the rule
its row of the instruction table names (``term.instruction.scale``):

* ``same`` — the scale of its (first) operand;
* ``product`` — the sum of its operands' scales (MULTIPLY);
* ``matched`` — ADD/SUB: Constraint 2 requires equal scales between
  ciphertext operands and the result has that scale.  A plaintext operand is
  encoded at the ciphertext's scale by the executor, so only ciphertext
  operands count; their maximum is used so that pre-MATCH-SCALE programs can
  still be analysed;
* ``rescaled`` — the operand's scale minus the rescale value (RESCALE).
"""

from __future__ import annotations

from typing import Dict

from ..ir import Program, Term
from ..types import ValueType
from .traversal import forward_traversal


def _matched(term: Term, scales: Dict[int, float]) -> float:
    cipher = [scales[a.id] for a in term.args if a.value_type is ValueType.CIPHER]
    return max(cipher or [scales[a.id] for a in term.args])


SCALE_RULES = {
    "same": lambda term, scales: scales[term.args[0].id],
    "product": lambda term, scales: sum(scales[a.id] for a in term.args),
    "matched": _matched,
    "rescaled": lambda term, scales: scales[term.args[0].id] - term.rescale_value,
}


def scale_of(term: Term, scales: Dict[int, float]) -> float:
    """The scale of ``term`` given those of its arguments in ``scales``."""
    if term.is_root:
        return float(term.scale) if term.scale is not None else 0.0
    return float(SCALE_RULES[term.instruction.scale](term, scales))


def compute_scales(program: Program) -> Dict[int, float]:
    """Return a map from term id to its scale in bits."""
    return forward_traversal(program, scale_of)
