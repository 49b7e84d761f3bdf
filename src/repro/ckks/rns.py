"""Residue Number System polynomial arithmetic.

An :class:`RnsPolynomial` stores one residue row per prime of its basis; all
ring operations (addition, negacyclic multiplication, Galois automorphisms,
dropping / dividing away trailing primes) run on the whole residue matrix with
vectorized ``numpy`` ``int64`` arithmetic and the batched NTT kernel of
:mod:`repro.ckks.ntt`.

A polynomial carries its **form**: :data:`COEFF` rows hold coefficients,
:data:`EVAL` rows hold the kernel's evaluations (in its private slot order).
Every operation accepts either form and returns the one that costs it no
transform — linear operations keep their operands' form (a mixed pair converts
its coefficient side), :meth:`RnsPolynomial.divide_and_round_last` transforms
only the rows it drops and the correction it spreads — so a chain of
multiplications never round-trips through the NTT.  ``residues`` is never
edited in place: changing form makes a new polynomial.

CRT composition back to the integers happens only at decryption:
:meth:`RnsPolynomial.to_float_coefficients` stays in ``int64`` / ``float64``;
:meth:`RnsPolynomial.to_int_coefficients` is the exact arbitrary-precision API.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import ParameterError
from .ntt import NttKernel, galois_ntt_permutation, get_ntt_kernel
from .numth import mod_inverse

#: Residue rows hold the polynomial's coefficients.
COEFF = "coeff"
#: Residue rows hold the NTT kernel's evaluations of the polynomial.
EVAL = "eval"

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
    ``int64`` column, the rescale inverses of the trailing primes, the CRT
    composition factors — are computed once per basis and cached, so the
    per-call overhead measured by ``tools/profile_ckks.py`` (rebuilding the
    primes array on every add, re-deriving ``mod_inverse`` on every rescale)
    is paid at basis construction instead of per polynomial op.

    ``special`` marks a key-switching basis, whose last prime is the special
    prime ``P``: a ciphertext whose polynomials live over one is *extended*
    (it holds ``P`` times its value and still owes the division by ``P``).
    """

    def __init__(
        self,
        primes: Sequence[int],
        poly_modulus_degree: int,
        _kernel: "NttKernel | None" = None,
        special: bool = False,
    ) -> None:
        if not primes:
            raise ParameterError("an RNS basis needs at least one prime")
        self.primes: List[int] = [int(p) for p in primes]
        self.poly_modulus_degree = int(poly_modulus_degree)
        self.special = bool(special)
        #: Transforms ``(..., len(primes), N)`` arrays over all primes at once.
        self.kernel = _kernel or get_ntt_kernel(self.primes, self.poly_modulus_degree)
        #: ``primes`` as an (L, 1) int64 column, ready to broadcast over residues.
        self.primes_column = np.array(self.primes, dtype=np.int64).reshape(-1, 1)
        self._dropped: "RnsBasis | None" = None
        self._rescale_inverses: Dict[int, np.ndarray] = {}
        self._garner_inverses: "List[np.ndarray] | None" = None
        self._crt_factors: "List[int] | None" = None
        self._modulus: "int | None" = None

    def __len__(self) -> int:
        return len(self.primes)

    def drop_last(self, count: int = 1) -> "RnsBasis":
        """The basis without its last ``count`` primes (an ordinary basis, not a special one)."""
        if self._dropped is None:
            # The dropped kernel is a row-slice view of this one's tables.
            self._dropped = RnsBasis(
                self.primes[:-1], self.poly_modulus_degree, _kernel=self.kernel.drop_last()
            )
        return self._dropped if count == 1 else self._dropped.drop_last(count - 1)

    def modulus(self) -> int:
        if self._modulus is None:
            product = 1
            for prime in self.primes:
                product *= prime
            self._modulus = product
        return self._modulus

    def rescale_inverses(self, count: int = 1) -> np.ndarray:
        """``(product of the last count primes)^-1 mod p`` per remaining prime, as a column."""
        inverses = self._rescale_inverses.get(count)
        if inverses is None:
            dropped = 1
            for prime in self.primes[-count:]:
                dropped *= prime
            inverses = self._rescale_inverses[count] = np.array(
                [mod_inverse(dropped, p) for p in self.primes[:-count]], dtype=np.int64
            ).reshape(-1, 1)
        return inverses

    def garner_inverses(self) -> List[np.ndarray]:
        """Entry ``i``: ``primes[i]^-1 mod p`` for every later prime ``p``, as a column."""
        if self._garner_inverses is None:
            self._garner_inverses = [
                np.array(
                    [mod_inverse(prime, p) for p in self.primes[index + 1 :]], dtype=np.int64
                ).reshape(-1, 1)
                for index, prime in enumerate(self.primes)
            ]
        return self._garner_inverses

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


def _centered(row: np.ndarray, prime: int) -> np.ndarray:
    """The representative of each residue in ``(-prime/2, prime/2]``."""
    return np.where(row > prime // 2, row - prime, row)


class RnsPolynomial:
    """A polynomial in ``Z_Q[X]/(X^N + 1)`` stored residue-wise, in either form."""

    __slots__ = ("basis", "residues", "form")

    def __init__(self, basis: RnsBasis, residues: np.ndarray, form: str = COEFF) -> None:
        self.basis = basis
        self.residues = residues  # shape (len(basis), N), int64, reduced
        self.form = form

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
        return RnsPolynomial(self.basis, self.residues.copy(), self.form)

    # -- form -----------------------------------------------------------------------
    def to_eval(self) -> "RnsPolynomial":
        """This polynomial in evaluation form (itself when it already is)."""
        if self.form == EVAL:
            return self
        return RnsPolynomial(self.basis, self.basis.kernel.forward(self.residues), EVAL)

    def to_coeff(self) -> "RnsPolynomial":
        """This polynomial in coefficient form (itself when it already is)."""
        if self.form == COEFF:
            return self
        return RnsPolynomial(self.basis, self.basis.kernel.inverse(self.residues), COEFF)

    # -- ring operations -----------------------------------------------------------
    def _check_basis(self, other: "RnsPolynomial") -> None:
        if self.basis != other.basis:
            raise ParameterError("polynomials have different RNS bases")

    def _same_form(self, other: "RnsPolynomial") -> Tuple[np.ndarray, np.ndarray, str]:
        """Both residue matrices in one form: a mixed pair converts its coefficient side."""
        self._check_basis(other)
        if self.form == other.form:
            return self.residues, other.residues, self.form
        return self.to_eval().residues, other.to_eval().residues, EVAL

    def add(self, other: "RnsPolynomial") -> "RnsPolynomial":
        a, b, form = self._same_form(other)
        # Both operands are reduced, so the sum lives in [0, 2p): the unsigned
        # minimum of t and t - p (which wraps when t < p) is the reduced one,
        # with no per-element division and no mask.
        total = (a + b).view(np.uint64)
        np.minimum(total, total - self.basis.primes_column.view(np.uint64), out=total)
        return RnsPolynomial(self.basis, total.view(np.int64), form)

    def sub(self, other: "RnsPolynomial") -> "RnsPolynomial":
        a, b, form = self._same_form(other)
        # The difference lives in (-p, p); a negative one wraps, so t + p is the smaller.
        diff = (a - b).view(np.uint64)
        np.minimum(diff, diff + self.basis.primes_column.view(np.uint64), out=diff)
        return RnsPolynomial(self.basis, diff.view(np.int64), form)

    def negate(self) -> "RnsPolynomial":
        primes = self.basis.primes_column
        negated = (primes - self.residues).view(np.uint64)  # in [1, p]: only p itself reduces
        np.minimum(negated, negated - primes.view(np.uint64), out=negated)
        return RnsPolynomial(self.basis, negated.view(np.int64), self.form)

    def multiply(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Negacyclic product in coefficient form: one forward and one inverse kernel pass."""
        self._check_basis(other)
        kernel = self.basis.kernel
        if self.form == other.form == COEFF:
            a, b = kernel.forward(np.stack([self.residues, other.residues]))
        else:
            a, b = self.to_eval().residues, other.to_eval().residues
        return RnsPolynomial(self.basis, kernel.inverse(a * b % self.basis.primes_column))

    def multiply_scalar(self, scalar: int) -> "RnsPolynomial":
        rows = []
        for index, prime in enumerate(self.basis.primes):
            rows.append(self.residues[index] * (int(scalar) % prime) % prime)
        return RnsPolynomial(self.basis, np.stack(rows), self.form)

    def automorphism(self, galois_element: int) -> "RnsPolynomial":
        """Apply ``X -> X^g`` (``g`` odd) in the negacyclic ring."""
        n = self.basis.poly_modulus_degree
        if self.form == EVAL:
            # On evaluations the automorphism only permutes the slots.
            permutation = galois_ntt_permutation(n, int(galois_element))
            return RnsPolynomial(self.basis, self.residues[:, permutation], EVAL)
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
        return RnsPolynomial(self.basis.drop_last(), self.residues[:-1].copy(), self.form)

    def divide_and_round_last(self, count: int = 1) -> "RnsPolynomial":
        """Divide by the last ``count`` (1 or 2) primes of the basis and round (CKKS rescaling).

        Bit-identical to ``count`` single divisions in a row, in the form of
        this polynomial.  Each division subtracts the centered residue of the
        prime it drops; two of them fold into one correction
        ``delta_P + P * delta_q`` (below 2^61, so it fits ``int64``).  In
        evaluation form only the dropped rows are inverse-transformed and only
        the correction is forward-transformed, over the rows that remain.
        """
        if count not in (1, 2):
            raise ParameterError("one or two primes can be divided away at a time")
        basis = self.basis
        kept = len(basis) - count
        if kept < 1:
            raise ParameterError("cannot rescale away the only prime of the basis")
        dropped = self.residues[kept:]
        if self.form == EVAL:
            dropped = basis.kernel.rows(kept, len(basis)).inverse(dropped)
        last = basis.primes[-1]
        correction = _centered(dropped[-1], last)
        if count == 2:
            # After the first division the next row holds (row - delta_P) / P.
            prime = basis.primes[-2]
            row = (dropped[0] - correction) % prime * mod_inverse(last, prime) % prime
            correction = correction + last * _centered(row, prime)
        new_basis = basis.drop_last(count)
        primes = new_basis.primes_column
        correction = correction % primes
        if self.form == EVAL:
            correction = new_basis.kernel.forward(correction)
        # Reduced minus reduced, plus p, lies in (0, 2p): times an inverse it stays below 2^63.
        diff = self.residues[:kept] - correction + primes
        return RnsPolynomial(new_basis, diff * basis.rescale_inverses(count) % primes, self.form)

    # -- CRT composition ---------------------------------------------------------------
    def to_float_coefficients(self) -> np.ndarray:
        """The centered integer coefficients as ``float64``, without big integers.

        Garner's mixed-radix digits, balanced: digit ``i`` is the centered
        residue modulo ``primes[i]`` of what is left after removing the lower
        digits and dividing by the lower primes, so the value is
        ``d_0 + p_0 (d_1 + p_1 (d_2 + ...))`` with no final ``v - Q``.  The
        digits are exact ``int64`` (every product is below 2^62); the sum runs
        high to low in ``float64``.  A coefficient below 2^53 in magnitude has
        exactly-zero high digits and comes out exact; a larger one is rounded
        at each of the remaining steps.
        """
        basis = self.basis
        rows = self.to_coeff().residues
        digits = []
        for index, (prime, inverses) in enumerate(zip(basis.primes, basis.garner_inverses())):
            digits.append(_centered(rows[0], prime))
            primes = basis.primes_column[index + 1 :]
            rows = (rows[1:] - digits[-1]) % primes * inverses % primes
        total = digits[-1].astype(np.float64)
        for digit, prime in zip(digits[-2::-1], basis.primes[-2::-1]):
            total = total * prime + digit
        return total

    def to_int_coefficients(self) -> List[int]:
        """CRT-compose the residues into exact centered integer coefficients."""
        modulus = self.basis.modulus()
        half = modulus // 2
        factors = self.basis.crt_factors()
        composed = np.zeros(self.basis.poly_modulus_degree, dtype=object)
        for row, factor in zip(self.to_coeff().residues, factors):
            composed += row.astype(object) * factor
        composed %= modulus
        return [int(c - modulus) if c > half else int(c) for c in composed]
