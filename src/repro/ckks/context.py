"""CKKS encryption context: parameters, primes, bases, and the encoder.

The context plays the role of SEAL's ``SEALContext``: it validates the
encryption parameters (including the homomorphic-encryption security standard
bound used by the compiler's parameter-selection pass), generates the
NTT-friendly primes for the coefficient modulus, and precomputes the RNS bases
used at every level of the modulus chain.

Prime ordering
--------------
The compiler emits coefficient-modulus *bit sizes* in consumption order with
the key-switching special prime last.  Internally, ciphertext bases store the
*last-consumed* prime first, so that RESCALE and MOD_SWITCH always operate on
the final residue row (the cheapest representation to drop).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from ..core.analysis.parameters import SECURITY_MAX_COEFF_MODULUS_BITS
from ..errors import ParameterError, SecurityError
from .encoder import CkksEncoder, get_encoder
from .numth import generate_ntt_primes
from .rns import RnsBasis, RnsPolynomial


class CkksContext:
    """Validated CKKS parameters plus the derived per-level RNS bases."""

    def __init__(
        self,
        poly_modulus_degree: int,
        coeff_modulus_bits: Sequence[int],
        security_level: int = 128,
        enforce_security: bool = True,
    ) -> None:
        if len(coeff_modulus_bits) < 2:
            raise ParameterError(
                "the coefficient modulus needs at least one data prime and the special prime"
            )
        self.poly_modulus_degree = int(poly_modulus_degree)
        self.coeff_modulus_bits = [int(b) for b in coeff_modulus_bits]
        self.security_level = int(security_level)

        if enforce_security:
            table = SECURITY_MAX_COEFF_MODULUS_BITS.get(self.security_level)
            if table is None:
                raise SecurityError(f"unsupported security level {security_level}")
            bound = table.get(self.poly_modulus_degree)
            if bound is None:
                raise SecurityError(
                    f"polynomial modulus degree {poly_modulus_degree} is not in the "
                    "security standard table"
                )
            if sum(self.coeff_modulus_bits) > bound:
                raise SecurityError(
                    f"total coefficient modulus of {sum(self.coeff_modulus_bits)} bits "
                    f"exceeds the {security_level}-bit security bound of {bound} bits "
                    f"for N={poly_modulus_degree}"
                )

        primes = generate_ntt_primes(self.coeff_modulus_bits, self.poly_modulus_degree)
        #: Primes in consumption order (the compiler's chain order), special last.
        self.consumable_primes: List[int] = primes[:-1]
        self.special_prime: int = primes[-1]
        self.encoder: CkksEncoder = get_encoder(self.poly_modulus_degree)

        self._data_bases: Dict[int, RnsBasis] = {}
        self._key_bases: Dict[int, RnsBasis] = {}

    # -- basic properties -----------------------------------------------------------
    @property
    def slots(self) -> int:
        return self.poly_modulus_degree // 2

    @property
    def max_level(self) -> int:
        """Number of consumable primes (levels 0 .. max_level-1 hold data)."""
        return len(self.consumable_primes)

    def prime_at_level(self, level: int) -> int:
        """The prime consumed by a RESCALE/MOD_SWITCH performed at ``level``."""
        if level < 0 or level >= self.max_level:
            raise ParameterError(f"level {level} out of range")
        return self.consumable_primes[level]

    # -- bases ------------------------------------------------------------------------
    def data_basis(self, level: int = 0) -> RnsBasis:
        """RNS basis of ciphertext data at the given level."""
        if level < 0 or level >= self.max_level:
            raise ParameterError(
                f"level {level} out of range (chain has {self.max_level} data primes)"
            )
        basis = self._data_bases.get(level)
        if basis is None:
            # Every data basis is a prefix of the level-0 key basis, so each is
            # derived by dropping a prime and shares that basis's NTT tables.
            parent = self.key_basis(0) if level == 0 else self.data_basis(level - 1)
            basis = parent.drop_last()
            self._data_bases[level] = basis
        return basis

    def key_basis(self, level: int = 0) -> RnsBasis:
        """RNS basis used during key switching at the given level (data + special)."""
        basis = self._key_bases.get(level)
        if basis is None:
            if level == 0:
                primes = list(reversed(self.consumable_primes))
            else:
                primes = self.data_basis(level).primes
            basis = RnsBasis(
                primes + [self.special_prime], self.poly_modulus_degree, special=True
            )
            self._key_bases[level] = basis
        return basis

    def restrict(self, poly: RnsPolynomial, basis: RnsBasis) -> RnsPolynomial:
        """Restrict a polynomial to a basis whose primes are a subset of its own."""
        index_of = {prime: i for i, prime in enumerate(poly.basis.primes)}
        try:
            rows = [poly.residues[index_of[prime]] for prime in basis.primes]
        except KeyError as exc:
            raise ParameterError("target basis is not contained in the source basis") from exc
        return RnsPolynomial(basis, np.stack(rows))

    # -- rotations -----------------------------------------------------------------------
    def galois_element_for_step(self, step: int) -> int:
        """Galois element realizing a left rotation of the slots by ``step``."""
        step = int(step) % self.slots
        return pow(5, step, 2 * self.poly_modulus_degree)

    # -- reporting -------------------------------------------------------------------------
    def total_coeff_modulus_bits(self) -> float:
        """Actual ``log2 Q`` including the special prime."""
        total = math.prod(self.consumable_primes) * self.special_prime
        return math.log2(total)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CkksContext N={self.poly_modulus_degree} "
            f"primes={self.coeff_modulus_bits} security={self.security_level}>"
        )
