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

    [ chain_0, chain_1, ..., chain_{L-1},  factor_0, ..., factor_{k-1},  s_f ]

where the ``chain_i`` entries are consumed (front to back) by the RESCALE and
MOD_SWITCH instructions of the program, the ``factor_j`` entries provide room
for the final message (output scale times desired output scale), and the
trailing ``s_f`` entry is the special prime used only during key switching
(it is consumed at encryption in the paper's accounting, hence the ``1 +`` in
the modulus-length formula).  It is never narrower than
:data:`SPECIAL_PRIME_BITS`: the security check below counts the prime that runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...errors import CompilationError, SecurityError
from ..ir import Program
from ..types import DEFAULT_MAX_RESCALE_BITS, DEFAULT_SECURITY_LEVEL
from .levels import Chain, output_chains
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
        special prime last).
    security_level:
        The security level (bits) the parameters were validated against.
    rotation_steps:
        Rotation step counts for which Galois keys must be generated.
    """

    poly_modulus_degree: int
    coeff_modulus_bits: List[int]
    security_level: int = DEFAULT_SECURITY_LEVEL
    rotation_steps: List[int] = field(default_factory=list)

    @property
    def slots(self) -> int:
        """Number of plaintext slots (``N / 2``)."""
        return self.poly_modulus_degree // 2

    @property
    def total_coeff_modulus_bits(self) -> int:
        """``log2 Q`` including the special prime."""
        return int(sum(self.coeff_modulus_bits))

    @property
    def modulus_count(self) -> int:
        """The modulus-chain length ``r`` (including the special prime)."""
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

    coeff_modulus_bits = best_bits + [max(int(max_rescale_bits), SPECIAL_PRIME_BITS)]

    total_bits = sum(coeff_modulus_bits)
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

    return EncryptionParameters(
        poly_modulus_degree=poly_modulus_degree,
        coeff_modulus_bits=[int(b) for b in coeff_modulus_bits],
        security_level=security_level,
        rotation_steps=sorted(set(rotation_steps)) if rotation_steps else [],
    )
