"""Homomorphic evaluation operations for RNS-CKKS.

Implements the operation set of Table 2 on real ciphertexts: element-wise
addition/subtraction/negation (ciphertext-ciphertext and ciphertext-plaintext),
multiplication, relinearization, slot rotation via Galois automorphisms,
rescaling, and modulus switching.  Every operation enforces the same
preconditions SEAL enforces and raises the typed errors of
:mod:`repro.errors` when they are violated — the conditions the EVA compiler
guarantees can never occur in a validated program.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from ..errors import (
    LevelMismatchError,
    ModulusExhaustedError,
    ParameterError,
    PolynomialCountError,
    ScaleMismatchError,
)
from .ciphertext import Ciphertext, Plaintext
from .context import CkksContext
from .keys import GaloisKeys, KeySwitchingKey, RelinearizationKey
from .ntt import galois_ntt_permutation
from .rns import RnsBasis, RnsPolynomial

#: Relative tolerance when comparing scales of additive operands.
_SCALE_RTOL = 1e-6

#: How many digit decompositions the hoisting cache retains (keyed by the
#: identity of the decomposed polynomial; entries hold a strong reference so
#: ``id()`` cannot be recycled while cached).
_HOIST_CACHE_CAPACITY = 4


#: Residue products are below 2^62, so this many fit one ``uint64`` sum unreduced.
_LAZY_TERMS = 4


def _multiply_accumulate(
    digits: np.ndarray, key_forms: np.ndarray, primes: np.ndarray
) -> np.ndarray:
    """``sum_j digits[j] * key_forms[:, j] mod primes`` as ``(2, K, N)``.

    Multiply-accumulates in ``uint64`` and divides once per ``_LAZY_TERMS``
    digits instead of once per product.
    """
    digits, key_forms, primes = (x.view(np.uint64) for x in (digits, key_forms, primes))
    total = None
    for start in range(0, len(digits), _LAZY_TERMS):
        stop = start + _LAZY_TERMS
        part = np.einsum("jkn,ajkn->akn", digits[start:stop], key_forms[:, start:stop]) % primes
        total = part if total is None else (total + part) % primes
    return total.view(np.int64)


class Evaluator:
    """Evaluates homomorphic operations on CKKS ciphertexts.

    Key switching runs in the NTT (evaluation) domain: switching keys are
    transformed once per (key, basis) and cached, all decomposition digits are
    transformed in one kernel pass and multiply-accumulated pointwise, and
    Galois automorphisms become index permutations of the cached digit
    transforms — so a group of rotations of the same ciphertext shares one
    decomposition (SEAL-style hoisting).  The original coefficient-domain
    path is the property-test oracle in ``tests/oracles/keyswitch.py``.
    """

    def __init__(
        self,
        context: CkksContext,
        relin_key: Optional[RelinearizationKey] = None,
        galois_keys: Optional[GaloisKeys] = None,
    ) -> None:
        self.context = context
        self.relin_key = relin_key
        self.galois_keys = galois_keys
        self._hoist_cache: "OrderedDict[int, Tuple[RnsPolynomial, int, np.ndarray]]" = (
            OrderedDict()
        )

    # -- checks ---------------------------------------------------------------------
    @staticmethod
    def _check_same_level(a: Ciphertext, b: Ciphertext) -> None:
        if a.level != b.level:
            raise LevelMismatchError(
                f"ciphertexts are at different levels ({a.level} vs {b.level})"
            )

    @staticmethod
    def _check_same_scale(a_scale: float, b_scale: float) -> None:
        if abs(a_scale - b_scale) > _SCALE_RTOL * max(abs(a_scale), abs(b_scale), 1.0):
            raise ScaleMismatchError(
                f"operand scales differ ({a_scale:g} vs {b_scale:g})"
            )

    def _check_plain(self, a: Ciphertext, p: Plaintext) -> None:
        if a.level != p.level:
            raise LevelMismatchError(
                f"plaintext level {p.level} does not match ciphertext level {a.level}"
            )

    # -- linear operations -------------------------------------------------------------
    def negate(self, a: Ciphertext) -> Ciphertext:
        return Ciphertext([p.negate() for p in a.polys], a.scale, a.level)

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_same_level(a, b)
        self._check_same_scale(a.scale, b.scale)
        size = max(a.size, b.size)
        polys = []
        for i in range(size):
            if i < a.size and i < b.size:
                polys.append(a.polys[i].add(b.polys[i]))
            elif i < a.size:
                polys.append(a.polys[i].copy())
            else:
                polys.append(b.polys[i].copy())
        return Ciphertext(polys, max(a.scale, b.scale), a.level)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self.add(a, self.negate(b))

    def add_plain(self, a: Ciphertext, p: Plaintext) -> Ciphertext:
        self._check_plain(a, p)
        self._check_same_scale(a.scale, p.scale)
        polys = [a.polys[0].add(p.poly)] + [poly.copy() for poly in a.polys[1:]]
        return Ciphertext(polys, a.scale, a.level)

    def sub_plain(self, a: Ciphertext, p: Plaintext, reverse: bool = False) -> Ciphertext:
        self._check_plain(a, p)
        self._check_same_scale(a.scale, p.scale)
        if not reverse:
            polys = [a.polys[0].sub(p.poly)] + [poly.copy() for poly in a.polys[1:]]
            return Ciphertext(polys, a.scale, a.level)
        negated = self.negate(a)
        polys = [negated.polys[0].add(p.poly)] + [poly.copy() for poly in negated.polys[1:]]
        return Ciphertext(polys, a.scale, a.level)

    # -- multiplication -------------------------------------------------------------------
    def multiply(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_same_level(a, b)
        for operand in (a, b):
            if operand.size != 2:
                raise PolynomialCountError(
                    f"multiplication operand has {operand.size} polynomials; relinearize first"
                )
        basis = a.basis
        a.polys[0]._check_basis(b.polys[0])
        # Each operand polynomial is transformed exactly once (twice fewer
        # when squaring), and the three products share one inverse pass.
        operands = a.polys if a is b else a.polys + b.polys
        forms = basis.kernel.forward(np.stack([poly.residues for poly in operands]))
        a0, a1, b0, b1 = forms if a is not b else (*forms, *forms)
        primes = basis.primes_column
        # Residue products stay below 2^62, so the cross term needs one reduction.
        products = np.stack([a0 * b0 % primes, (a0 * b1 + a1 * b0) % primes, a1 * b1 % primes])
        polys = [RnsPolynomial(basis, rows) for rows in basis.kernel.inverse(products)]
        return Ciphertext(polys, a.scale * b.scale, a.level)

    def multiply_plain(self, a: Ciphertext, p: Plaintext) -> Ciphertext:
        self._check_plain(a, p)
        basis = a.basis
        a.polys[0]._check_basis(p.poly)
        operands = a.polys + [p.poly]
        forms = basis.kernel.forward(np.stack([poly.residues for poly in operands]))
        products = forms[:-1] * forms[-1:] % basis.primes_column
        polys = [RnsPolynomial(basis, rows) for rows in basis.kernel.inverse(products)]
        return Ciphertext(polys, a.scale * p.scale, a.level)

    def square(self, a: Ciphertext) -> Ciphertext:
        return self.multiply(a, a)

    # -- key switching ----------------------------------------------------------------------
    def _key_switch(
        self, poly: RnsPolynomial, switching_key: KeySwitchingKey, level: int
    ) -> Tuple[RnsPolynomial, RnsPolynomial]:
        """Switch ``poly`` (held under some key ``s'``) to the secret key ``s``.

        Returns the pair to be added to ``(c0, c1)``, already scaled down by
        the special prime and expressed in the data basis of ``level``.
        """
        digit_ntts = self._digit_ntts(poly, level, cache=False)
        return self._key_switch_decomposed(digit_ntts, switching_key, level)

    def _digit_ntts(self, poly: RnsPolynomial, level: int, cache: bool) -> np.ndarray:
        """Forward NTT of every decomposition digit of ``poly`` over the key basis.

        Returns an ``(L, K, N)`` array: row ``j`` holds the NTT (one row per
        key-basis prime) of ``poly``'s ``j``-th data residue lifted to the key
        basis.  With ``cache=True`` the result is memoized by the identity of
        ``poly`` so a group of rotations of one ciphertext decomposes once.
        """
        if cache:
            entry = self._hoist_cache.get(id(poly))
            if entry is not None and entry[0] is poly and entry[1] == level:
                self._hoist_cache.move_to_end(id(poly))
                return entry[2]
        key_basis = self.context.key_basis(level)
        # Lift every data residue row to all key primes, then transform the
        # whole (L, K, N) digit matrix in one kernel pass.
        digits = poly.residues[:, np.newaxis, :] % key_basis.primes_column
        digit_ntts = key_basis.kernel.forward(digits)
        if cache:
            self._hoist_cache[id(poly)] = (poly, level, digit_ntts)
            while len(self._hoist_cache) > _HOIST_CACHE_CAPACITY:
                self._hoist_cache.popitem(last=False)
        return digit_ntts

    def _key_evaluation_form(
        self, switching_key: KeySwitchingKey, key_basis: RnsBasis, data_primes: Tuple[int, ...]
    ) -> np.ndarray:
        """Evaluation form of the switching-key pairs, cached on the key object.

        Returns a ``(2, L, K, N)`` array: ``[0, j]`` is the forward transform
        over the key basis of ``b_j`` and ``[1, j]`` that of ``a_j``, for data
        prime ``q_j``.  Keys are static per session, so this is computed once
        per (key, basis) instead of twice per key switch.
        """
        forms = switching_key._evaluation_forms
        cache_key = tuple(key_basis.primes)
        cached = forms.get(cache_key)
        if cached is not None:
            return cached
        missing = [q_j for q_j in data_primes if q_j not in switching_key.pairs]
        if missing:
            raise ParameterError(f"switching key is missing the digit for prime {missing[0]}")
        restrict = self.context.restrict
        stacked = np.stack(
            [
                [restrict(poly, key_basis).residues for poly in switching_key.pairs[q_j]]
                for q_j in data_primes
            ]
        )
        # (L, 2, K, N) in, (2, L, K, N) kept: each accumulator reads a contiguous block.
        forms[cache_key] = np.ascontiguousarray(key_basis.kernel.forward(stacked).swapaxes(0, 1))
        return forms[cache_key]

    def _key_switch_decomposed(
        self,
        digit_ntts: np.ndarray,
        switching_key: KeySwitchingKey,
        level: int,
        permutation: Optional[np.ndarray] = None,
    ) -> Tuple[RnsPolynomial, RnsPolynomial]:
        """Key switch from pre-transformed digits, entirely in the NTT domain.

        ``permutation`` (a Galois NTT permutation) is applied to the digits on
        the fly, which is how hoisted rotations reuse one decomposition.
        """
        context = self.context
        key_basis = context.key_basis(level)
        data_primes = tuple(context.data_basis(level).primes)
        key_forms = self._key_evaluation_form(switching_key, key_basis, data_primes)
        if permutation is not None:
            digit_ntts = np.take(digit_ntts, permutation, axis=-1)
        # Both accumulators sum_j digit_j * key_j at once, then one inverse pass.
        totals = _multiply_accumulate(digit_ntts, key_forms, key_basis.primes_column)
        poly0, poly1 = (RnsPolynomial(key_basis, rows) for rows in key_basis.kernel.inverse(totals))
        return poly0.divide_and_round_last(), poly1.divide_and_round_last()

    def relinearize(self, a: Ciphertext) -> Ciphertext:
        """Reduce a three-polynomial ciphertext back to two polynomials."""
        if self.relin_key is None:
            raise ParameterError("no relinearization key available")
        if a.size == 2:
            return a.copy()
        if a.size != 3:
            raise PolynomialCountError(
                f"relinearization supports ciphertexts of size 3, got {a.size}"
            )
        ks0, ks1 = self._key_switch(a.polys[2], self.relin_key.key, a.level)
        return Ciphertext(
            [a.polys[0].add(ks0), a.polys[1].add(ks1)], a.scale, a.level
        )

    def rotate(self, a: Ciphertext, steps: int) -> Ciphertext:
        """Rotate the slots left by ``steps`` (negative values rotate right).

        The decomposition of ``c1`` is hoisted: it is transformed once (and
        cached by ciphertext identity), and each rotation applies its Galois
        element as an index permutation of the cached digit NTTs — rotating
        the same ciphertext by k different steps costs one decomposition
        instead of k.
        """
        if self.galois_keys is None:
            raise ParameterError("no Galois keys available")
        steps = int(steps) % self.context.slots
        if steps == 0:
            return a.copy()
        if a.size != 2:
            raise PolynomialCountError("rotation requires a relinearized ciphertext")
        element = self.context.galois_element_for_step(steps)
        switching_key = self.galois_keys.key_for(element)
        c0 = a.polys[0].automorphism(element)
        digit_ntts = self._digit_ntts(a.polys[1], a.level, cache=True)
        permutation = galois_ntt_permutation(self.context.poly_modulus_degree, element)
        ks0, ks1 = self._key_switch_decomposed(
            digit_ntts, switching_key, a.level, permutation=permutation
        )
        return Ciphertext([c0.add(ks0), ks1], a.scale, a.level)

    # -- modulus chain -----------------------------------------------------------------------
    def rescale_to_next(self, a: Ciphertext) -> Ciphertext:
        """Divide the ciphertext (and its scale) by the next prime in the chain."""
        if a.level >= self.context.max_level - 1:
            raise ModulusExhaustedError("cannot rescale: no prime left to divide away")
        prime = a.basis.primes[-1]
        polys = [p.divide_and_round_last() for p in a.polys]
        return Ciphertext(polys, a.scale / prime, a.level + 1)

    def mod_switch_to_next(self, a: Ciphertext) -> Ciphertext:
        """Drop the next prime in the chain without changing the scale."""
        if a.level >= self.context.max_level - 1:
            raise ModulusExhaustedError("cannot switch modulus: no prime left to drop")
        polys = [p.drop_last() for p in a.polys]
        return Ciphertext(polys, a.scale, a.level + 1)
