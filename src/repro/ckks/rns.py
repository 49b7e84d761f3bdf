"""Residue Number System polynomial arithmetic.

An :class:`RnsPolynomial` stores one residue row per prime of its basis; all
ring operations (addition, negacyclic multiplication, Galois automorphisms,
dropping / dividing away the last prime) run on the whole residue matrix with
vectorized ``numpy`` ``int64`` arithmetic and the batched NTT kernel of
:mod:`repro.ckks.ntt`.  Residues are always in coefficient form; evaluation
(NTT) form exists only as transient or cached ``numpy`` arrays inside the
operations that need it.

CRT composition back to arbitrary-precision integers (needed only at
decryption time, where coefficients can exceed 64 bits) uses Python integers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import ParameterError
from .ntt import NttKernel, get_ntt_kernel
from .numth import mod_inverse

_AUTOMORPHISM_TABLE_CACHE: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}


def _automorphism_tables(n: int, galois_element: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached (target index, sign flip) tables for ``X -> X^g`` at degree ``n``."""
    g = int(galois_element) % (2 * n)
    key = (int(n), g)
    cached = _AUTOMORPHISM_TABLE_CACHE.get(key)
    if cached is None:
        indices = (np.arange(n, dtype=np.int64) * g) % (2 * n)
        cached = (indices % n, indices >= n)
        _AUTOMORPHISM_TABLE_CACHE[key] = cached
    return cached


class RnsBasis:
    """An ordered list of primes together with their batched NTT kernel.

    Derived tables that every hot operation needs — the primes broadcast as an
    ``int64`` column, the rescale inverses of the last prime, the CRT
    composition factors — are computed once per basis and cached, so the
    per-call overhead measured by ``tools/profile_ckks.py`` (rebuilding the
    primes array on every add, re-deriving ``mod_inverse`` on every rescale)
    is paid at basis construction instead of per polynomial op.
    """

    def __init__(
        self,
        primes: Sequence[int],
        poly_modulus_degree: int,
        _kernel: "NttKernel | None" = None,
    ) -> None:
        if not primes:
            raise ParameterError("an RNS basis needs at least one prime")
        self.primes: List[int] = [int(p) for p in primes]
        self.poly_modulus_degree = int(poly_modulus_degree)
        #: Transforms ``(..., len(primes), N)`` arrays over all primes at once.
        self.kernel = _kernel or get_ntt_kernel(self.primes, self.poly_modulus_degree)
        #: ``primes`` as an (L, 1) int64 column, ready to broadcast over residues.
        self.primes_column = np.array(self.primes, dtype=np.int64).reshape(-1, 1)
        self._dropped: "RnsBasis | None" = None
        self._rescale_inverses: "np.ndarray | None" = None
        self._crt_factors: "List[int] | None" = None
        self._modulus: "int | None" = None

    def __len__(self) -> int:
        return len(self.primes)

    def drop_last(self) -> "RnsBasis":
        if self._dropped is None:
            # The dropped kernel is a row-slice view of this one's tables.
            self._dropped = RnsBasis(
                self.primes[:-1], self.poly_modulus_degree, _kernel=self.kernel.drop_last()
            )
        return self._dropped

    def modulus(self) -> int:
        if self._modulus is None:
            product = 1
            for prime in self.primes:
                product *= prime
            self._modulus = product
        return self._modulus

    def rescale_inverses(self) -> np.ndarray:
        """``last_prime^-1 mod p`` for every remaining prime, as an (L-1, 1) column."""
        if self._rescale_inverses is None:
            last = self.primes[-1]
            self._rescale_inverses = np.array(
                [mod_inverse(last, p) for p in self.primes[:-1]], dtype=np.int64
            ).reshape(-1, 1)
        return self._rescale_inverses

    def crt_factors(self) -> List[int]:
        """CRT composition factor ``(Q/p) * ((Q/p)^-1 mod p)`` per prime."""
        if self._crt_factors is None:
            modulus = self.modulus()
            factors = []
            for prime in self.primes:
                quotient = modulus // prime
                factors.append((quotient * mod_inverse(quotient, prime)) % modulus)
            self._crt_factors = factors
        return self._crt_factors

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RnsBasis)
            and self.primes == other.primes
            and self.poly_modulus_degree == other.poly_modulus_degree
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RnsBasis {len(self.primes)} primes, N={self.poly_modulus_degree}>"


class RnsPolynomial:
    """A polynomial in ``Z_Q[X]/(X^N + 1)`` stored residue-wise."""

    __slots__ = ("basis", "residues")

    def __init__(self, basis: RnsBasis, residues: np.ndarray) -> None:
        self.basis = basis
        self.residues = residues  # shape (len(basis), N), int64, reduced

    # -- constructors -------------------------------------------------------------
    @classmethod
    def zero(cls, basis: RnsBasis) -> "RnsPolynomial":
        return cls(
            basis,
            np.zeros((len(basis), basis.poly_modulus_degree), dtype=np.int64),
        )

    @classmethod
    def from_int_coefficients(cls, basis: RnsBasis, coeffs: Iterable[int]) -> "RnsPolynomial":
        """Build from (possibly negative, possibly large) integer coefficients."""
        coeff_list = list(coeffs)
        n = basis.poly_modulus_degree
        if len(coeff_list) != n:
            raise ParameterError(f"expected {n} coefficients, got {len(coeff_list)}")
        rows = []
        as_array = np.asarray(coeff_list, dtype=object)
        for prime in basis.primes:
            row = np.array([int(c) % prime for c in as_array], dtype=np.int64)
            rows.append(row)
        return cls(basis, np.stack(rows))

    @classmethod
    def from_int64_coefficients(cls, basis: RnsBasis, coeffs: np.ndarray) -> "RnsPolynomial":
        """Build from int64 coefficients (fast path; values must fit in int64)."""
        coeffs = np.asarray(coeffs, dtype=np.int64)
        return cls(basis, coeffs[np.newaxis, :] % basis.primes_column)

    def copy(self) -> "RnsPolynomial":
        return RnsPolynomial(self.basis, self.residues.copy())

    # -- ring operations -----------------------------------------------------------
    def _check_basis(self, other: "RnsPolynomial") -> None:
        if self.basis != other.basis:
            raise ParameterError("polynomials have different RNS bases")

    def add(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_basis(other)
        # Both operands are reduced, so the sum lives in [0, 2p): a conditional
        # subtract replaces the per-element int64 division of `% p`.
        primes = self.basis.primes_column
        total = self.residues + other.residues
        np.subtract(total, primes, out=total, where=total >= primes)
        return RnsPolynomial(self.basis, total)

    def sub(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_basis(other)
        primes = self.basis.primes_column
        diff = self.residues - other.residues
        np.add(diff, primes, out=diff, where=diff < 0)
        return RnsPolynomial(self.basis, diff)

    def negate(self) -> "RnsPolynomial":
        primes = self.basis.primes_column
        negated = primes - self.residues
        np.subtract(negated, primes, out=negated, where=negated >= primes)
        return RnsPolynomial(self.basis, negated)

    def multiply(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Negacyclic polynomial product: one forward and one inverse kernel pass."""
        self._check_basis(other)
        kernel = self.basis.kernel
        a, b = kernel.forward(np.stack([self.residues, other.residues]))
        return RnsPolynomial(self.basis, kernel.inverse(a * b % self.basis.primes_column))

    def multiply_scalar(self, scalar: int) -> "RnsPolynomial":
        rows = []
        for index, prime in enumerate(self.basis.primes):
            rows.append(self.residues[index] * (int(scalar) % prime) % prime)
        return RnsPolynomial(self.basis, np.stack(rows))

    def automorphism(self, galois_element: int) -> "RnsPolynomial":
        """Apply ``X -> X^g`` (``g`` odd) in the negacyclic ring."""
        n = self.basis.poly_modulus_degree
        target, sign_flip = _automorphism_tables(n, int(galois_element))
        primes = self.basis.primes_column
        values = self.residues.copy()
        flipped = values[:, sign_flip]
        values[:, sign_flip] = np.where(flipped == 0, 0, primes - flipped)
        out = np.empty_like(values)
        out[:, target] = values
        return RnsPolynomial(self.basis, out)

    # -- modulus-chain operations ----------------------------------------------------
    def drop_last(self) -> "RnsPolynomial":
        """Drop the last prime without scaling (CKKS modulus switching)."""
        if len(self.basis) < 2:
            raise ParameterError("cannot drop the only prime of the basis")
        return RnsPolynomial(self.basis.drop_last(), self.residues[:-1].copy())

    def divide_and_round_last(self) -> "RnsPolynomial":
        """Divide by the last prime of the basis and round (CKKS rescaling)."""
        if len(self.basis) < 2:
            raise ParameterError("cannot rescale away the only prime of the basis")
        last_prime = self.basis.primes[-1]
        last_row = self.residues[-1]
        centered = np.where(last_row > last_prime // 2, last_row - last_prime, last_row)
        new_basis = self.basis.drop_last()
        primes = new_basis.primes_column
        inverses = self.basis.rescale_inverses()
        diff = (self.residues[:-1] - centered[np.newaxis, :]) % primes
        return RnsPolynomial(new_basis, diff * inverses % primes)

    def divide_and_round_last_reference(self) -> "RnsPolynomial":
        """Row-at-a-time rescale re-deriving the inverses (property-test oracle)."""
        if len(self.basis) < 2:
            raise ParameterError("cannot rescale away the only prime of the basis")
        last_prime = self.basis.primes[-1]
        last_row = self.residues[-1]
        centered = np.where(last_row > last_prime // 2, last_row - last_prime, last_row)
        new_basis = self.basis.drop_last()
        rows = []
        for index, prime in enumerate(new_basis.primes):
            inv = mod_inverse(last_prime, prime)
            diff = (self.residues[index] - centered) % prime
            rows.append(diff * inv % prime)
        return RnsPolynomial(new_basis, np.stack(rows))

    def to_int_coefficients(self) -> List[int]:
        """CRT-compose the residues into centered integer coefficients."""
        modulus = self.basis.modulus()
        half = modulus // 2
        factors = self.basis.crt_factors()
        composed = np.zeros(self.basis.poly_modulus_degree, dtype=object)
        for row, factor in zip(self.residues, factors):
            composed += row.astype(object) * factor
        composed %= modulus
        return [int(c - modulus) if c > half else int(c) for c in composed]

    def to_int_coefficients_reference(self) -> List[int]:
        """Pure-Python CRT composition (property-test oracle for the fast path)."""
        modulus = self.basis.modulus()
        half = modulus // 2
        n = self.basis.poly_modulus_degree
        composed = [0] * n
        for index, prime in enumerate(self.basis.primes):
            quotient = modulus // prime
            factor = (quotient * mod_inverse(quotient, prime)) % modulus
            row = self.residues[index]
            for position in range(n):
                composed[position] = (composed[position] + int(row[position]) * factor) % modulus
        return [c - modulus if c > half else c for c in composed]
