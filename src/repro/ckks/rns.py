"""Residue Number System polynomial arithmetic.

An :class:`RnsPolynomial` stores one residue row per prime of its basis; all
ring operations (addition, negacyclic multiplication, Galois automorphisms,
dropping trailing primes) run on the whole residue matrix with vectorized
``numpy`` ``int64`` arithmetic and the batched NTT kernel of
:mod:`repro.ckks.ntt`.  Dividing trailing primes away runs the kernel's
transforms around :class:`RescaleConstants`, whose pointwise arithmetic is
``ntt.c``'s Shoup products where the C kernels loaded (numpy, with the same
bits, where they did not).

A polynomial carries its **form**: :data:`COEFF` rows hold coefficients,
:data:`EVAL` rows hold the kernel's evaluations (in its private slot order).
Every operation accepts either form and returns the one that costs it no
transform — linear operations keep their operands' form (a mixed pair converts
its coefficient side), :meth:`RnsPolynomial.divide_and_round_last` transforms
only the rows it drops and the correction it spreads — so a chain of
multiplications never round-trips through the NTT.  ``residues`` is never
edited in place: changing form makes a new polynomial.

CRT composition back to the integers happens only at decryption:
:meth:`RnsPolynomial.to_float_coefficients` stays in ``int64`` / ``float64``
(the exact big-integer composition is a test oracle).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import ParameterError
from .ntt import NttKernel, galois_ntt_permutation, get_ntt_kernel, native_library
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
    ``int64`` column, the rescale inverses of the trailing primes and the
    rest of a division's constants (:meth:`rescale_constants`), the Garner
    composition inverses — are computed once per basis and cached, so the
    per-call overhead profiling measured (rebuilding the primes array on every
    add, re-deriving ``mod_inverse`` on every rescale) is paid once per basis
    instead of per polynomial op.

    ``special`` counts the special primes that end a key-switching basis, whose
    product is ``P``: a ciphertext whose polynomials live over one is
    *extended* (it holds ``P`` times its value and still owes the division by
    ``P``).  An ordinary basis has ``special == 0``.
    """

    def __init__(
        self,
        primes: Sequence[int],
        poly_modulus_degree: int,
        _kernel: "NttKernel | None" = None,
        special: int = 0,
    ) -> None:
        if not primes:
            raise ParameterError("an RNS basis needs at least one prime")
        self.primes: List[int] = [int(p) for p in primes]
        self.poly_modulus_degree = int(poly_modulus_degree)
        self.special = int(special)
        #: Transforms ``(..., len(primes), N)`` arrays over all primes at once.
        self.kernel = _kernel or get_ntt_kernel(self.primes, self.poly_modulus_degree)
        #: ``primes`` as an (L, 1) int64 column, ready to broadcast over residues.
        self.primes_column = np.array(self.primes, dtype=np.int64).reshape(-1, 1)
        self._dropped: "RnsBasis | None" = None
        self._rescale_inverses: Dict[int, np.ndarray] = {}
        self._rescale_constants: Dict[int, RescaleConstants] = {}
        self._garner_inverses: "List[np.ndarray] | None" = None
        self._special_multiplier: "np.ndarray | None" = None

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

    def divides_onto(self, data: "RnsBasis") -> None:
        """Make ``drop_last(self.special)`` return ``data`` (the existing basis
        of this one's data primes) instead of building a copy of it."""
        tail = self.drop_last(self.special - 1) if self.special > 1 else self
        tail._dropped = data

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

    def rescale_constants(self, count: int = 1) -> "RescaleConstants":
        """The tables a division by the last ``count`` primes reads, built once."""
        constants = self._rescale_constants.get(count)
        if constants is None:
            constants = self._rescale_constants[count] = RescaleConstants(self, count)
        return constants

    def special_multiplier(self) -> np.ndarray:
        """``P mod q`` for every prime before the special ones, as a column:
        the factor that extends a polynomial of the data basis."""
        if self._special_multiplier is None:
            data = len(self) - self.special
            product = math.prod(self.primes[data:])
            multiplier = [product % prime for prime in self.primes[:data]]
            self._special_multiplier = np.array(multiplier, dtype=np.int64).reshape(-1, 1)
        return self._special_multiplier

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


def _with_shoup(values: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """``values`` (each below its modulus) stacked on a new axis 0 with their Shoup
    companions ``floor(v * 2^32 / modulus)``, the operands of ``ntt.c``'s ``mul_shoup``."""
    return np.stack([values, (values << 32) // moduli])


class RescaleConstants:
    """Division by the last ``count`` primes of a basis with rounding, on tables built once.

    The correction that division subtracts is the mixed-radix number
    ``delta_0 + p_0 delta_1 + p_0 p_1 delta_2 + ...`` over the dropped primes
    ``p_0, p_1, ...`` (last first): digit ``delta_i`` is the centered residue
    modulo ``p_i`` of what remains after removing the earlier digits and
    dividing by their primes.  :meth:`divide` computes it modulo each kept
    prime, then subtracts it and multiplies by the inverse of the dropped
    product, on these tables (each ``int64``, stacked on axis 0 with the
    Shoup companions ``ntt.c`` multiplies by):

    * ``steps[:, i, j]``: ``p_j^-1 mod p_i`` for ``j < i`` (0 above the diagonal);
    * ``weights[:, i, k]``: ``p_0 ... p_{i-1} mod q_k`` for ``i <= count``;
    * ``inverses[:, k]``: ``(p_0 ... p_{count-1})^-1 mod q_k``.

    Both halves run in ``ntt.c``'s ``repro_rescale`` when the C kernels loaded,
    else its numpy body (``_numpy_correction`` / ``_numpy_finish``), which
    answers with the same bits and is the oracle the C one is tested against.
    """

    def __init__(self, basis: "RnsBasis", count: int) -> None:
        kept = basis.drop_last(count)
        self.n = basis.poly_modulus_degree
        #: The kept primes as an ``(L - count, 1)`` column.
        self.primes = kept.primes_column
        dropped = basis.primes[: len(kept) - 1 : -1]
        #: The dropped primes, last first.
        self.dropped = np.array(dropped, dtype=np.int64)
        steps = [
            [mod_inverse(earlier, prime) for earlier in dropped[:index]] + [0] * (count - index)
            for index, prime in enumerate(dropped)
        ]
        self.steps = _with_shoup(np.array(steps, dtype=np.int64), self.dropped.reshape(-1, 1))
        weights = [[math.prod(dropped[:i]) % q for q in kept.primes] for i in range(count + 1)]
        self.weights = _with_shoup(np.array(weights, dtype=np.int64), self.primes.reshape(-1))
        inverses = basis.rescale_inverses(count).reshape(-1)
        self.inverses = _with_shoup(inverses, self.primes.reshape(-1))

    def divide(self, kept=None, dropped=None, correction=None) -> np.ndarray:
        """The correction from the ``dropped`` rows (coefficient form) alone, or
        ``(kept - correction) * (dropped product)^-1`` per kept prime from
        ``kept`` and either the ``dropped`` rows (coefficient form) or a
        ``correction`` in ``kept``'s form (which C overwrites with the result)."""
        library = native_library()
        if library is not None:
            return self._c(library, kept, dropped, correction)
        if dropped is not None:
            correction = self._numpy_correction(dropped)
        return correction if kept is None else self._numpy_finish(kept, correction)

    def _c(self, library, kept, dropped, out) -> np.ndarray:
        """One ``repro_rescale`` call, on contiguous ``int64`` rows of this division's shape."""
        kept, dropped = (
            None if a is None else np.ascontiguousarray(a, np.int64) for a in (kept, dropped)
        )
        shape = (len(self.primes), self.n)
        out = np.empty(shape, np.int64) if out is None else np.require(out, np.int64, ["C", "W"])
        for rows, height in ((kept, shape[0]), (dropped, len(self.dropped)), (out, shape[0])):
            if rows is not None and rows.shape != (height, self.n):
                raise ParameterError(f"expected ({height}, {self.n}) residues, got {rows.shape}")
        status = library.repro_rescale(
            None if kept is None else kept.ctypes.data,
            None if dropped is None else dropped.ctypes.data, out.ctypes.data,
            self.n, shape[0], len(self.dropped), self.primes.ctypes.data,
            self.dropped.ctypes.data, self.steps.ctypes.data, self.weights.ctypes.data,
            self.inverses.ctypes.data,
        )
        if status:
            raise MemoryError("the C rescale could not allocate its digit rows")
        return out

    def _numpy_correction(self, dropped: np.ndarray) -> np.ndarray:
        digits = []
        for index, prime in enumerate(self.dropped):
            row = dropped[len(self.dropped) - 1 - index]
            for digit, inverse in zip(digits, self.steps[0, index]):
                row = (row - digit) % prime * inverse % prime
            digits.append(_centered(row, prime))
        # The first two digits fold exactly (below 2^61); later ones are
        # added modulo each kept prime, times the product of the primes before.
        correction = digits[0] + self.dropped[0] * digits[1] if len(digits) > 1 else digits[0]
        correction = correction % self.primes
        for digit, weight in zip(digits[2:], self.weights[0, 2:]):
            correction = (correction + weight.reshape(-1, 1) * digit) % self.primes
        return correction

    def _numpy_finish(self, kept: np.ndarray, correction: np.ndarray) -> np.ndarray:
        # Reduced minus reduced, plus p, lies in (0, 2p): times an inverse it stays below 2^63.
        return (kept - correction + self.primes) * self.inverses[0].reshape(-1, 1) % self.primes


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
        """Divide by the last ``count`` primes of the basis and round (CKKS rescaling).

        Bit-identical to ``count`` single divisions in a row, in the form of
        this polynomial.  Each division subtracts the centered residue of the
        prime it drops; together they fold into one correction, a mixed-radix
        number over the dropped primes reduced modulo each kept prime
        (:class:`RescaleConstants`).  In coefficient form that is one call; in
        evaluation form only the dropped rows are inverse-transformed and only
        the correction is forward-transformed, over the rows that remain,
        between the two halves.
        """
        basis = self.basis
        kept = len(basis) - count
        if count < 1 or kept < 1:
            raise ParameterError(
                f"cannot divide {len(basis)} primes by {count}: one prime must remain"
            )
        constants, new_basis = basis.rescale_constants(count), basis.drop_last(count)
        if self.form == COEFF:
            residues = constants.divide(self.residues[:kept], self.residues[kept:])
            return RnsPolynomial(new_basis, residues, COEFF)
        dropped = basis.kernel.rows(kept, len(basis)).inverse(self.residues[kept:])
        correction = new_basis.kernel.forward(constants.divide(dropped=dropped))
        residues = constants.divide(self.residues[:kept], correction=correction)
        return RnsPolynomial(new_basis, residues, EVAL)

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
