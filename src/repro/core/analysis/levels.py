"""Level and rescale-chain analysis (Definitions 1-3 of the paper).

The *level* of a term is the number of RESCALE / MOD_SWITCH operations on any
path from a root to the term — equivalently, how many elements of the
coefficient-modulus chain have been consumed to produce it.  The *rescale
chain* of a term records, per consumed element, the rescale value in bits
(or ``None`` for a MOD_SWITCH, the paper's ``∞``, meaning "whatever prime sits
at that position").

A term's chain is *conforming* when every root-to-term path yields the same
chain (allowing ``None`` to match anything).  Constraint 1 requires the
conforming chains of the ciphertext operands of ADD/SUB/MULTIPLY to be equal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...errors import ValidationError
from ..ir import Program, Term
from ..types import Op, ValueType
from .traversal import forward_traversal

#: A rescale chain: one entry per consumed modulus, rescale bits or None (∞).
Chain = Tuple[Optional[float], ...]


def compute_levels(program: Program) -> Dict[int, int]:
    """Return a map from term id to its level (consumed modulus count).

    For binary operations whose operands are at different levels (i.e. before
    MOD_SWITCH insertion) the maximum operand level is used, which is the
    level the operation must execute at once the compiler has fixed it up.
    """

    def visit(term: Term, state: Dict[int, int]) -> int:
        if term.is_root:
            return 0
        return max(state[a.id] for a in term.args) + term.instruction.consumes_modulus

    return forward_traversal(program, visit)


def merge_chains(a: Chain, b: Chain) -> Optional[Chain]:
    """Merge two rescale chains; return None if they cannot conform.

    Chains conform when they have equal length and agree element-wise, where a
    ``None`` (MOD_SWITCH / ∞) entry matches any value.
    """
    if len(a) != len(b):
        return None
    merged: List[Optional[float]] = []
    for x, y in zip(a, b):
        if x is None:
            merged.append(y)
        elif y is None or x == y:
            merged.append(x)
        else:
            return None
    return tuple(merged)


def compute_rescale_chains(
    program: Program, strict: bool = True
) -> Dict[int, Chain]:
    """Compute the conforming rescale chain of every term.

    With ``strict=True`` a :class:`ValidationError` is raised as soon as the
    chains of the ciphertext operands of a binary arithmetic instruction do
    not conform (Constraint 1).  With ``strict=False`` the longest operand
    chain is propagated instead, which is useful for analysing intermediate
    (not yet fixed up) programs.
    """

    def visit(term: Term, state: Dict[int, Chain]) -> Chain:
        if term.is_root:
            return ()
        cipher_args = [a for a in term.args if a.value_type is ValueType.CIPHER]
        if not cipher_args:
            chain: Chain = ()
        elif len(cipher_args) == 1:
            chain = state[cipher_args[0].id]
        else:
            chain = state[cipher_args[0].id]
            for other in cipher_args[1:]:
                merged = merge_chains(chain, state[other.id])
                if merged is None:
                    if strict:
                        raise ValidationError(
                            f"operands of {term.op.name} (term {term.id}) have "
                            f"non-conforming rescale chains: "
                            f"{chain} vs {state[other.id]}"
                        )
                    longer = max(
                        (state[a.id] for a in cipher_args), key=len
                    )
                    merged = longer
                chain = merged
        if term.op is Op.RESCALE:
            chain = chain + (float(term.rescale_value),)
        elif term.op is Op.MOD_SWITCH:
            chain = chain + (None,)
        return chain

    return forward_traversal(program, visit)


def output_chains(program: Program, strict: bool = True) -> Dict[str, Chain]:
    """Return the conforming rescale chain of each named output."""
    chains = compute_rescale_chains(program, strict=strict)
    return {name: chains[term.id] for name, term in program.outputs.items()}
