"""Encryption-parameter selection pass (Section 6.2).

Given a validated program, desired output scales, and the maximum rescale
value ``s_f``, this pass computes:

* the vector of coefficient-modulus *bit sizes* that must be used to generate
  the encryption parameters (one entry per RNS prime), and
* the polynomial modulus degree ``N``, chosen as the smallest power of two
  that (a) offers at least ``vec_size`` slots and (b) keeps the total
  coefficient modulus within the homomorphic encryption security standard's
  bound for the requested security level.

The bit-size vector is laid out as::

    [ chain_0, ..., chain_{L-1},  factor_0, ..., factor_{m-1},  special_0, ..., special_{k-1} ]

where the ``chain_i`` entries are consumed (front to back) by the RESCALE and
MOD_SWITCH instructions of the program, the ``factor_j`` entries provide room
for the final message (output scale times desired output scale), and the
trailing ``k`` special primes are used only during key switching (the paper
has one, ``s_f``, consumed at encryption in its accounting, hence the ``1 +``
in the modulus-length formula).  The security check counts every prime that
runs.

``N`` is chosen for the chain with one special prime of
``max(s_f, SPECIAL_PRIME_BITS)`` bits.  Then, at that ``N``, key switching is
shaped (:func:`select_key_switching`): digits of ``group_size`` data primes
over ``k`` special primes whose product ``P`` keeps ``P / (largest group
modulus)`` at least the one-prime ratio ``P / (largest data prime)``, chosen
by the fewest NTT rows the program's key switches transform
(:func:`keyswitch_rows`), ties going to the smaller key.  ``k = 1`` with
digits of one prime is the paper's shape and what a program that switches no
key keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...errors import CompilationError, SecurityError
from ..ir import Program
from ..types import DEFAULT_MAX_RESCALE_BITS, DEFAULT_SECURITY_LEVEL, Op, ValueType
from .levels import Chain, compute_levels, output_chains
from .scales import compute_scales

#: Maximum total coefficient modulus bits allowed by the HE security standard
#: (Albrecht et al., HomomorphicEncryption.org 2018) for each polynomial
#: modulus degree, per security level.
SECURITY_MAX_COEFF_MODULUS_BITS: Dict[int, Dict[int, int]] = {
    128: {1024: 27, 2048: 54, 4096: 109, 8192: 218, 16384: 438, 32768: 881, 65536: 1782},
    192: {1024: 19, 2048: 37, 4096: 75, 8192: 152, 16384: 305, 32768: 611, 65536: 1229},
    256: {1024: 14, 2048: 29, 4096: 58, 8192: 118, 16384: 237, 32768: 476, 65536: 954},
}

#: Largest polynomial modulus degree in the standard's table.
MAX_POLY_MODULUS_DEGREE = 65536

#: Narrowest special (key-switching) prime.  Key-switching noise is divided by
#: the special prime, so a wide one keeps rotations and relinearizations
#: accurate when the data primes are narrow (SEAL makes it the largest prime);
#: 30 bits is the widest prime the CKKS backend generates.
SPECIAL_PRIME_BITS = 30

#: Narrowest output factor.  An NTT prime ``p = 1 (mod 2N)`` has more than
#: ``log2(2N)`` bits (17 at the table's largest ``N``), so a residual a bit
#: past a multiple of ``s_f`` is given this much room, never a 1-bit "prime".
MIN_FACTOR_BITS = 20


@dataclass
class EncryptionParameters:
    """Encryption parameters produced by the selection pass.

    Attributes
    ----------
    poly_modulus_degree:
        The ring dimension ``N``.
    coeff_modulus_bits:
        Bit size of each prime in the coefficient modulus (chain order,
        special primes last).
    security_level:
        The security level (bits) the parameters were validated against.
    rotation_steps:
        Rotation step counts for which Galois keys must be generated.
    special_primes:
        How many primes end ``coeff_modulus_bits`` as key-switching special
        primes (derived by :func:`select_key_switching`; a record without it
        has one).
    group_size:
        Data primes per key-switching digit (derived likewise; one by default).
    """

    poly_modulus_degree: int
    coeff_modulus_bits: List[int]
    security_level: int = DEFAULT_SECURITY_LEVEL
    rotation_steps: List[int] = field(default_factory=list)
    special_primes: int = 1
    group_size: int = 1

    @property
    def data_bits(self) -> List[int]:
        """The chain's data primes, in consumption order (the special primes dropped)."""
        return self.coeff_modulus_bits[: -self.special_primes]

    @property
    def slots(self) -> int:
        """Number of plaintext slots (``N / 2``)."""
        return self.poly_modulus_degree // 2

    @property
    def total_coeff_modulus_bits(self) -> int:
        """``log2 Q`` including the special primes."""
        return int(sum(self.coeff_modulus_bits))

    @property
    def modulus_count(self) -> int:
        """The modulus-chain length ``r`` (including the special primes)."""
        return len(self.coeff_modulus_bits)

    def summary(self) -> Dict[str, int]:
        """Compact summary used by the benchmark tables (Table 6)."""
        return {
            "log_n": int(math.log2(self.poly_modulus_degree)),
            "log_q": self.total_coeff_modulus_bits,
            "r": self.modulus_count,
        }


def max_modulus_bits(poly_modulus_degree: int, security_level: int) -> int:
    """Upper bound on ``log2 Q`` for the given ``N`` and security level."""
    table = SECURITY_MAX_COEFF_MODULUS_BITS.get(security_level)
    if table is None:
        raise SecurityError(f"unsupported security level {security_level}")
    bound = table.get(poly_modulus_degree)
    if bound is None:
        raise SecurityError(
            f"unsupported polynomial modulus degree {poly_modulus_degree}"
        )
    return bound


def _chain_bits(chain: Chain, max_rescale_bits: float) -> List[int]:
    """Convert a rescale chain into concrete prime bit sizes.

    MOD_SWITCH entries (``None``) consume whatever prime sits at that
    position; positions determined only by MOD_SWITCH default to ``s_f``.
    """
    return [
        int(math.ceil(value if value is not None else max_rescale_bits))
        for value in chain
    ]


def _output_factors(total_bits: float, max_rescale_bits: float) -> List[int]:
    """Factorize the residual output scale into primes of at most ``s_f`` bits."""
    total = max(float(total_bits), 1.0)
    factors: List[int] = []
    while total > max_rescale_bits:
        factors.append(int(max_rescale_bits))
        total -= max_rescale_bits
    factors.append(max(int(math.ceil(total)), min(MIN_FACTOR_BITS, int(max_rescale_bits))))
    return factors


def select_parameters(
    program: Program,
    desired_output_scales: Optional[Dict[str, float]] = None,
    max_rescale_bits: float = DEFAULT_MAX_RESCALE_BITS,
    security_level: int = DEFAULT_SECURITY_LEVEL,
    rotation_steps: Optional[Sequence[int]] = None,
) -> EncryptionParameters:
    """Select encryption parameters for a compiled program.

    ``desired_output_scales`` maps output names to the desired scale (bits) of
    the decrypted result; missing outputs default to the program's recorded
    ``output_scales`` and finally to 0 bits.
    """
    desired = dict(program.output_scales)
    if desired_output_scales:
        desired.update(desired_output_scales)

    scales = compute_scales(program)
    chains = output_chains(program, strict=True)

    best_bits: Optional[List[int]] = None
    best_key: Tuple[int, float] = (-1, -1.0)
    for name, term in program.outputs.items():
        chain_bits = _chain_bits(chains[name], max_rescale_bits)
        residual = scales[term.id] + desired.get(name, 0.0)
        factors = _output_factors(residual, max_rescale_bits)
        key = (len(chain_bits) + len(factors), float(sum(chain_bits) + sum(factors)))
        if key > best_key:
            best_key = key
            best_bits = chain_bits + factors
    if best_bits is None:
        raise CompilationError("program has no outputs to select parameters for")

    special_bits = max(int(max_rescale_bits), SPECIAL_PRIME_BITS)
    total_bits = sum(best_bits) + special_bits
    table = SECURITY_MAX_COEFF_MODULUS_BITS[security_level]
    poly_modulus_degree = max(2 * program.vec_size, min(table))
    while (
        poly_modulus_degree in table
        and table[poly_modulus_degree] < total_bits
    ):
        poly_modulus_degree *= 2
    if poly_modulus_degree not in table:
        if poly_modulus_degree > MAX_POLY_MODULUS_DEGREE:
            raise SecurityError(
                f"no polynomial modulus degree up to {MAX_POLY_MODULUS_DEGREE} can "
                f"accommodate log2 Q = {total_bits} bits at {security_level}-bit security"
            )
        raise SecurityError(
            f"polynomial modulus degree {poly_modulus_degree} is not covered by "
            "the security standard table"
        )

    group_size, special_primes, width = select_key_switching(
        program, best_bits, special_bits, table[poly_modulus_degree]
    )
    return EncryptionParameters(
        poly_modulus_degree=poly_modulus_degree,
        coeff_modulus_bits=[int(b) for b in best_bits] + [width] * special_primes,
        security_level=security_level,
        rotation_steps=sorted(set(rotation_steps)) if rotation_steps else [],
        special_primes=special_primes,
        group_size=group_size,
    )


#: Uses that take a rotation's value as it is, extended (``c0`` still owing its division by ``P``).
_EXTENDED_USES = frozenset({Op.ADD, Op.SUB, Op.NEGATE, Op.ROTATE_LEFT, Op.ROTATE_RIGHT})
_ROTATIONS = frozenset({Op.ROTATE_LEFT, Op.ROTATE_RIGHT})


def _switch_counts(program: Program) -> Dict[int, Dict[str, int]]:
    """Per level: the key switches' decompositions and divisions by ``P``.

    ``modup`` counts decompositions (a rotated operand once, however many
    rotations share it: they are hoisted), ``divide`` the polynomials a
    rotation divides by ``P`` (``c1`` always; ``c0`` too when a use reads
    the rotation's value), ``relinearize`` the relinearizations.
    """
    levels = compute_levels(program)
    uses = program.uses()
    counts: Dict[int, Dict[str, int]] = {}
    decomposed = set()
    for term in program.terms():
        if term.value_type is not ValueType.CIPHER:
            continue
        if term.op is not Op.RELINEARIZE and term.op not in _ROTATIONS:
            continue
        level = counts.setdefault(levels[term.id], {"modup": 0, "divide": 0, "relinearize": 0})
        if term.op is Op.RELINEARIZE:
            level["relinearize"] += 1
            continue
        operand = term.args[0].id
        level["modup"] += operand not in decomposed
        decomposed.add(operand)
        level["divide"] += 1 + any(use.op not in _EXTENDED_USES for use in uses[term.id])
    return counts


def modup_rows(data_primes: int, group_size: int, special_primes: int) -> int:
    """NTT rows of one decomposition over ``data_primes`` primes: ``d * K``,
    ``d`` digits of ``group_size`` primes over ``K = data_primes + special_primes``
    key primes (whether the polynomial arrives in coefficient or evaluation form)."""
    return -(-data_primes // group_size) * (data_primes + special_primes)


def keyswitch_rows(
    program: Program,
    data_primes: int,
    group_size: int = 1,
    special_primes: int = 1,
    counts: Optional[Dict[int, Dict[str, int]]] = None,
) -> int:
    """NTT rows the key switches of ``program`` transform over a chain of
    ``data_primes`` data primes, at their levels.

    A rotation costs its operand's decomposition (:func:`modup_rows`, shared
    by hoisted rotations) and ``K`` per polynomial divided by ``P`` (the
    special rows back and the correction forward, or the whole polynomial back
    from coefficient form).  A relinearization costs the decomposition of
    ``c2``, and ``2k`` more in the rescale after it, which divides both
    polynomials by the special primes with the next prime.
    """
    counts = _switch_counts(program) if counts is None else counts
    rows = 0
    for level, count in counts.items():
        primes = data_primes - level
        key_primes = primes + special_primes
        modup = modup_rows(primes, group_size, special_primes)
        rows += count["modup"] * modup + count["divide"] * key_primes
        rows += count["relinearize"] * (modup + 2 * special_primes)
    return rows


def select_key_switching(
    program: Program, data_bits: Sequence[int], special_bits: int, budget: int
) -> Tuple[int, int, int]:
    """``(group_size, special_primes, width)`` for a chain of ``data_bits``.

    Digits group the data primes in basis order (last consumed first, see
    ``CkksContext.digit_groups``).  Each candidate's special primes are of one
    width, at most ``special_bits`` (the one-prime chain's) and at least
    :data:`MIN_FACTOR_BITS`, and together at least the largest group's bits
    plus ``special_bits - max(data_bits)``; the chain must fit ``budget``.
    The fewest :func:`keyswitch_rows` win, then the fewest key bits (digits
    times chain bits).  With no key switch the one-prime shape stays.
    """
    counts = _switch_counts(program)
    if not counts:
        return 1, 1, special_bits
    margin, basis = special_bits - max(data_bits), list(data_bits)[::-1]
    candidates = []
    for group_size in range(1, len(basis) + 1):
        starts = range(0, len(basis), group_size)
        group_bits = max(sum(basis[start : start + group_size]) for start in starts)
        for special_primes in range(1, len(basis) + 2):
            width = max(-(-(group_bits + margin) // special_primes), MIN_FACTOR_BITS)
            total = sum(data_bits) + special_primes * width
            if width <= special_bits and total <= budget:
                rows = keyswitch_rows(program, len(basis), group_size, special_primes, counts)
                candidates.append(((rows, len(starts) * total), (group_size, special_primes, width)))
    return min(candidates)[1]
