"""Validation passes for the constraints of Section 4.2.

The validator re-checks, at compile time, every restriction the RNS-CKKS
scheme (and SEAL) would otherwise enforce with a runtime exception:

* **Constraint 1** — the ciphertext operands of ADD/SUB/MULTIPLY must have the
  same coefficient modulus (equal conforming rescale chains).
* **Constraint 2** — the ciphertext operands of ADD/SUB must have the same
  scale.
* **Constraint 3** — the ciphertext operands of MULTIPLY must consist of
  exactly two polynomials.
* **Constraint 4** — no RESCALE may divide by more than the maximum rescale
  value ``s_f``.

A failed check raises :class:`~repro.errors.ValidationError`; a successfully
validated program can be executed on a backend without any FHE runtime
exception, which is the guarantee the paper's compiler provides.
"""

from __future__ import annotations

from typing import Dict

from ...errors import UnsupportedOperationError, ValidationError
from ..instructions import INSTRUCTIONS
from ..ir import Program, Term
from ..types import DEFAULT_MAX_RESCALE_BITS, Op, ValueType
from .levels import compute_rescale_chains
from .scales import compute_scales
from .traversal import forward_traversal

#: Tolerance (in bits) when comparing scales of additive operands.
SCALE_TOLERANCE_BITS = 1e-6


def compute_polynomial_counts(program: Program) -> Dict[int, int]:
    """Number of polynomials of the ciphertext produced by each term.

    Fresh ciphertexts have two polynomials; multiplying two ciphertexts with
    ``k`` and ``l`` polynomials yields one with ``k + l - 1``; RELINEARIZE
    brings the count back to two.  Plaintext-valued terms report zero.
    """

    def visit(term: Term, state: Dict[int, int]) -> int:
        if term.value_type is not ValueType.CIPHER:
            return 0
        if term.is_root:
            return 2
        cipher_counts = [
            state[a.id] for a in term.args if a.value_type is ValueType.CIPHER
        ]
        if term.op is Op.MULTIPLY and len(cipher_counts) == 2:
            return cipher_counts[0] + cipher_counts[1] - 1
        if term.op is Op.RELINEARIZE:
            return 2
        return max(cipher_counts) if cipher_counts else 2

    return forward_traversal(program, visit)


def check_evaluable(program: Program) -> None:
    """Refuse an opcode without a row, or one the compiler lowers away (SUM,
    COPY): a compiled graph holding one would fail every request instead."""
    for term in program.instructions():
        if term.op not in INSTRUCTIONS or term.instruction.evaluate is None:
            raise UnsupportedOperationError(
                f"{term.op.name} (term {term.id}) never reaches a backend: "
                "a compiled program cannot hold it"
            )


def validate(
    program: Program,
    max_rescale_bits: float = DEFAULT_MAX_RESCALE_BITS,
    check_scale_positive: bool = True,
) -> None:
    """Validate a compiled program against Constraints 1-4.

    Parameters
    ----------
    program:
        The (transformed) program to check.
    max_rescale_bits:
        ``log2 s_f``; every RESCALE value must be at most this (Constraint 4).
    check_scale_positive:
        Additionally require every ciphertext scale to stay strictly positive,
        which guards against rescaling below the fixed-point representation.
    """
    program.check_structure(frontend_only=False)
    check_evaluable(program)

    # Constraint 1: conforming, equal rescale chains (raises on violation).
    compute_rescale_chains(program, strict=True)

    scales = compute_scales(program)
    polys = compute_polynomial_counts(program)

    for term in program.terms():
        cipher_args = [a for a in term.args if a.value_type is ValueType.CIPHER]

        if term.is_instruction and term.instruction.scale == "matched" and len(cipher_args) == 2:
            s0, s1 = scales[cipher_args[0].id], scales[cipher_args[1].id]
            if abs(s0 - s1) > SCALE_TOLERANCE_BITS:
                raise ValidationError(
                    f"Constraint 2 violated at {term.op.name} (term {term.id}): "
                    f"operand scales 2^{s0:g} and 2^{s1:g} differ"
                )

        if term.op is Op.MULTIPLY:
            for arg in cipher_args:
                if polys[arg.id] != 2:
                    raise ValidationError(
                        f"Constraint 3 violated at MULTIPLY (term {term.id}): "
                        f"operand term {arg.id} has {polys[arg.id]} polynomials "
                        "(needs a RELINEARIZE)"
                    )

        if term.op is Op.RESCALE:
            if term.rescale_value > max_rescale_bits + SCALE_TOLERANCE_BITS:
                raise ValidationError(
                    f"Constraint 4 violated at RESCALE (term {term.id}): "
                    f"rescale value 2^{term.rescale_value:g} exceeds the maximum "
                    f"2^{max_rescale_bits:g}"
                )
            if term.rescale_value <= 0:
                raise ValidationError(
                    f"RESCALE (term {term.id}) has non-positive rescale value"
                )

        if (
            check_scale_positive
            and term.value_type is ValueType.CIPHER
            and scales[term.id] <= 0
        ):
            raise ValidationError(
                f"term {term.id} ({term.op.name}) has non-positive scale "
                f"2^{scales[term.id]:g}; the message would be destroyed"
            )
