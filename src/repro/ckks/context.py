"""CKKS encryption context: parameters, primes, bases, and the encoder.

The context plays the role of SEAL's ``SEALContext``: it validates the
encryption parameters (including the homomorphic-encryption security standard
bound used by the compiler's parameter-selection pass), generates the
NTT-friendly primes for the coefficient modulus, and precomputes the RNS bases
used at every level of the modulus chain.

A context builds one set of NTT tables, its level-0 key basis's: a data basis
transforms on a row-slice view of them, a later level's key basis on a join of
two views (its data rows, the special rows), so table memory grows with the
chain's length, not its square.

Prime ordering
--------------
The compiler emits coefficient-modulus *bit sizes* in consumption order with
the ``k`` key-switching special primes last.  Internally, ciphertext bases
store the *last-consumed* prime first, so that RESCALE and MOD_SWITCH always
operate on the final residue row (the cheapest representation to drop).

Digit groups
------------
Key switching decomposes a polynomial into *digits*, one per group of
``group_size`` data primes, taken in basis order: the data basis of level 0
is cut into runs of ``group_size`` rows from its first row (the last prime to
be consumed), so only the last group — the one consumed first — may be
short, and a level's groups are a prefix of level 0's, the last of them
possibly cut.  The special primes' product ``P`` is what the key-switch result
is divided by.  ``group_size = 1`` with one special prime is the classic
per-prime decomposition.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.analysis.parameters import SECURITY_MAX_COEFF_MODULUS_BITS
from ..errors import ParameterError, SecurityError
from .encoder import CkksEncoder, get_encoder
from .numth import generate_ntt_primes, mod_inverse
from .rns import RnsBasis


class CkksContext:
    """Validated CKKS parameters plus the derived per-level RNS bases."""

    def __init__(
        self,
        poly_modulus_degree: int,
        coeff_modulus_bits: Sequence[int],
        security_level: int = 128,
        enforce_security: bool = True,
        special_primes: int = 1,
        group_size: int = 1,
    ) -> None:
        special_primes, group_size = int(special_primes), int(group_size)
        if min(special_primes, group_size) < 1 or len(coeff_modulus_bits) <= special_primes:
            raise ParameterError(
                "the coefficient modulus needs at least one data prime and the special "
                "primes, and a digit at least one prime"
            )
        self.poly_modulus_degree = int(poly_modulus_degree)
        self.coeff_modulus_bits = [int(b) for b in coeff_modulus_bits]
        self.security_level = int(security_level)
        #: Data primes per key-switching digit.
        self.group_size = group_size

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
        self.consumable_primes: List[int] = primes[:-special_primes]
        self.special_primes: List[int] = primes[-special_primes:]
        self.encoder: CkksEncoder = get_encoder(self.poly_modulus_degree)

        self._data_bases: Dict[int, RnsBasis] = {}
        self._key_bases: Dict[int, RnsBasis] = {}
        self._conversions: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

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
            # derived by dropping primes and shares that basis's NTT tables.
            if level == 0:
                basis = self.key_basis(0).drop_last(len(self.special_primes))
            else:
                basis = self.data_basis(level - 1).drop_last()
            self._data_bases[level] = basis
        return basis

    def key_basis(self, level: int = 0) -> RnsBasis:
        """RNS basis used during key switching at the given level (data + special)."""
        basis = self._key_bases.get(level)
        if basis is None:
            if level == 0:
                primes, kernel = list(reversed(self.consumable_primes)), None
            else:
                primes = self.data_basis(level).primes
                top, count = self.key_basis(0).kernel, self.max_level
                kernel = top.rows(0, len(primes)).join(top.rows(count, len(top.primes)))
            basis = RnsBasis(
                primes + self.special_primes,
                self.poly_modulus_degree,
                _kernel=kernel,
                special=len(self.special_primes),
            )
            if level > 0:  # level 0's data basis is derived from this one
                basis.divides_onto(self.data_basis(level))
            self._key_bases[level] = basis
        return basis

    def digit_groups(self, level: int = 0) -> List[slice]:
        """The data rows of each key-switching digit at ``level``, in basis order."""
        count, size = len(self.data_basis(level)), self.group_size
        return [slice(start, min(start + size, count)) for start in range(0, count, size)]

    def group_primes(self) -> List[int]:
        """The prime naming each digit group of a switching key: its first data
        prime, in basis order (the consumption order reversed)."""
        basis = self.data_basis(0).primes
        return [basis[group.start] for group in self.digit_groups(0)]

    def base_conversion(self, level: int) -> Tuple[np.ndarray, np.ndarray]:
        """Tables that lift each digit from its group's primes to the key basis.

        Returns ``(inverses, factors)``: row ``i`` of the data basis is
        multiplied by ``inverses[i] = (Q_g / q_i)^-1 mod q_i`` and then by
        ``factors[0, i, p] = (Q_g / q_i) mod p`` for every key prime ``p``, and
        the products of a group's rows sum to its digit — the group's residue
        ``[x]_{Q_g}`` plus a multiple of ``Q_g`` below the group's size (fast
        base conversion).  ``Q_g`` is the product of the group's primes at
        this level.
        """
        tables = self._conversions.get(level)
        if tables is None:
            data = self.data_basis(level).primes
            key = self.key_basis(level).primes
            inverses = np.ones((len(data), 1), dtype=np.int64)
            factors = np.ones((1, len(data), len(key)), dtype=np.uint64)
            for group in self.digit_groups(level):
                members = data[group]
                modulus = math.prod(members)
                for row, prime in enumerate(members, start=group.start):
                    quotient = modulus // prime
                    inverses[row] = mod_inverse(quotient, prime)
                    factors[0, row] = [quotient % p for p in key]
            tables = self._conversions[level] = (inverses, factors)
        return tables

    # -- rotations -----------------------------------------------------------------------
    def galois_element_for_step(self, step: int) -> int:
        """Galois element realizing a left rotation of the slots by ``step``."""
        step = int(step) % self.slots
        return pow(5, step, 2 * self.poly_modulus_degree)

    # -- reporting -------------------------------------------------------------------------
    def total_coeff_modulus_bits(self) -> float:
        """Actual ``log2 Q`` including the special primes."""
        return math.log2(math.prod(self.consumable_primes) * math.prod(self.special_primes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CkksContext N={self.poly_modulus_degree} "
            f"primes={self.coeff_modulus_bits} special={len(self.special_primes)} "
            f"group={self.group_size} security={self.security_level}>"
        )
