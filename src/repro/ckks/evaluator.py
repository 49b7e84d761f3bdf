"""Homomorphic evaluation operations for RNS-CKKS.

Implements the operation set of Table 2 on real ciphertexts: element-wise
addition/subtraction/negation (ciphertext-ciphertext and ciphertext-plaintext),
multiplication, relinearization, slot rotation via Galois automorphisms,
rescaling, and modulus switching.  Every operation enforces the same
preconditions SEAL enforces and raises the typed errors of
:mod:`repro.errors` when they are violated — the conditions the EVA compiler
guarantees can never occur in a validated program.

Form follows the operation: each operation takes its operands in whatever form
they arrive and returns the form that costs it no transform.  Multiplications
return evaluation form (and leave their operands converted, by rebinding
``Ciphertext.polys``); linear operations keep the form they are given.

A key switch computes ``P`` times its result, in evaluation form over the key
basis, and the division by ``P`` — the product of the special primes — is paid
only by a polynomial whose *value* is needed next.  ``rotate`` returns
``[perm(P*c0) + t0, round(t1 / P)]``: ``c1`` is decomposed by the next
rotation, so it is settled in the form it arrived in; ``c0`` is only ever
permuted and added — both free in evaluation form over the key basis — so it
stays *extended* through rotation chains and reduction trees, and one division
settles the sum of all their key-switch results.  ``relinearize`` of an
evaluation-form ciphertext leaves both polynomials extended because the
``rescale_to_next`` that follows divides by ``P`` and the next prime in one
pass.  ``add`` / ``sub`` / ``negate`` keep an extended polynomial extended (a
settled partner is *lifted* to ``P`` times itself, which never rebinds it);
everything else settles first.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Sequence, Tuple

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
from .rns import COEFF, EVAL, RnsBasis, RnsPolynomial

#: Relative tolerance when comparing scales of additive operands.
_SCALE_RTOL = 1e-6

#: How many ciphertexts the hoisting cache remembers: the digit decomposition
#: of ``c1`` with the lift of ``c0`` beside it (keyed by the identity of
#: ``c1``; entries hold strong references so ``id()`` cannot be recycled while
#: cached, and :meth:`Evaluator.forget` drops a ciphertext's entries when it
#: is released).
_HOIST_CACHE_CAPACITY = 4


#: Residue products are below 2^62, so this many fit one ``uint64`` sum unreduced.
_LAZY_TERMS = 4


def _multiply_accumulate(
    digits: np.ndarray, key_forms: np.ndarray, primes: np.ndarray
) -> np.ndarray:
    """``sum_j digits[j] * key_forms[:, j] mod primes`` as ``(2, K, N)``.

    ``key_forms`` is ``uint32`` (a switching key's form, or a view of its
    rows); it is widened as it is multiplied, in ``uint64``, which divides
    once per ``_LAZY_TERMS`` digits instead of once per product.
    """
    digits, primes = digits.view(np.uint64), primes.view(np.uint64)
    total = None
    for start in range(0, len(digits), _LAZY_TERMS):
        stop = start + _LAZY_TERMS
        part = np.einsum("jkn,ajkn->akn", digits[start:stop], key_forms[:, start:stop]) % primes
        total = part if total is None else (total + part) % primes
    return total.view(np.int64)


class Evaluator:
    """Evaluates homomorphic operations on CKKS ciphertexts.

    Key switching runs in the NTT (evaluation) domain: each switching key is
    read in its one level-0 evaluation form, all decomposition digits are
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
        #: ``id(c1) -> (c1, c0, digit NTTs of c1, c0 extended, id of the ciphertext)``,
        #: least recently rotated first.
        self._hoist_cache: (
            "OrderedDict[int, Tuple[RnsPolynomial, RnsPolynomial, np.ndarray, RnsPolynomial, int]]"
        ) = OrderedDict()
        self._hoist_lock = threading.Lock()

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
    def _lift(self, poly: RnsPolynomial, level: int) -> RnsPolynomial:
        """``P * poly`` in evaluation form over the key basis: ``poly``, extended.

        The special rows of a multiple of ``P`` are zero, so this is ``L``
        forward rows from coefficient form and none from evaluation form.
        """
        key_basis = self.context.key_basis(level)
        data = len(key_basis) - key_basis.special
        rows = np.zeros((len(key_basis), key_basis.poly_modulus_degree), dtype=np.int64)
        multiplier = key_basis.special_multiplier()
        rows[:data] = poly.to_eval().residues * multiplier % key_basis.primes_column[:data]
        return RnsPolynomial(key_basis, rows, EVAL)

    def _remembered(self, c0: RnsPolynomial, c1: RnsPolynomial) -> Optional[tuple]:
        """The hoisting-cache entry of the ciphertext ``(c0, c1)``, if it is still these two."""
        with self._hoist_lock:
            entry = self._hoist_cache.get(id(c1))
            if entry is None or entry[0] is not c1 or entry[1] is not c0:
                return None
            self._hoist_cache.move_to_end(id(c1))
            return entry

    def _extended(self, polys: Sequence[RnsPolynomial], index: int, level: int) -> RnsPolynomial:
        """``polys[index]`` extended: itself when it already is, otherwise lifted.

        A lift makes a new polynomial and never rebinds the ciphertext it
        reads.  The lift of a rotated ciphertext's ``c0`` is already in the
        hoisting cache, so ``acc + (acc << k)`` and a hoisted group lift once.
        """
        poly = polys[index]
        if poly.basis.special:
            return poly
        entry = self._remembered(*polys) if index == 0 and len(polys) == 2 else None
        return entry[3] if entry else self._lift(poly, level)

    def negate(self, a: Ciphertext) -> Ciphertext:
        return Ciphertext([p.negate() for p in a.polys], a.scale, a.level)

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_same_level(a, b)
        self._check_same_scale(a.scale, b.scale)
        shorter, longer = sorted((a.polys, b.polys), key=len)
        polys = []
        for index, (p, q) in enumerate(zip(shorter, longer)):
            if p.basis.special != q.basis.special:  # the settled one of a pair meets the other
                p, q = (self._extended(polys_, index, a.level) for polys_ in (shorter, longer))
            polys.append(p.add(q))
        polys += [p.copy() for p in longer[len(shorter) :]]
        return Ciphertext(polys, max(a.scale, b.scale), a.level)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self.add(a, self.negate(b))

    def add_plain(self, a: Ciphertext, p: Plaintext) -> Ciphertext:
        self._check_plain(a, p)
        self._check_same_scale(a.scale, p.scale)
        c0, *rest = a.settle()
        return Ciphertext([c0.add(p.poly)] + [poly.copy() for poly in rest], a.scale, a.level)

    def sub_plain(self, a: Ciphertext, p: Plaintext, reverse: bool = False) -> Ciphertext:
        if reverse:
            return self.add_plain(self.negate(a), p)
        self._check_plain(a, p)
        self._check_same_scale(a.scale, p.scale)
        c0, *rest = a.settle()
        return Ciphertext([c0.sub(p.poly)] + [poly.copy() for poly in rest], a.scale, a.level)

    # -- multiplication -------------------------------------------------------------------
    def multiply(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_same_level(a, b)
        for operand in (a, b):
            if operand.size != 2:
                raise PolynomialCountError(
                    f"multiplication operand has {operand.size} polynomials; relinearize first"
                )
        # Each operand is transformed at most once in its life (it keeps the
        # evaluation form), and the product is not transformed back.
        (a0, a1), (b0, b1) = a.to_eval(), b.to_eval()
        a0._check_basis(b0)
        basis = a0.basis
        primes = basis.primes_column
        a0, a1, b0, b1 = (poly.residues for poly in (a0, a1, b0, b1))
        # Residue products stay below 2^62, so the cross term needs one reduction.
        products = (a0 * b0 % primes, (a0 * b1 + a1 * b0) % primes, a1 * b1 % primes)
        polys = [RnsPolynomial(basis, rows, EVAL) for rows in products]
        return Ciphertext(polys, a.scale * b.scale, a.level)

    def multiply_plain(self, a: Ciphertext, p: Plaintext) -> Ciphertext:
        self._check_plain(a, p)
        polys = a.to_eval()
        polys[0]._check_basis(p.poly)
        basis = polys[0].basis
        plain = p.poly.to_eval().residues
        products = [poly.residues * plain % basis.primes_column for poly in polys]
        polys = [RnsPolynomial(basis, rows, EVAL) for rows in products]
        return Ciphertext(polys, a.scale * p.scale, a.level)

    def square(self, a: Ciphertext) -> Ciphertext:
        return self.multiply(a, a)

    # -- key switching ----------------------------------------------------------------------
    def _digits(self, coefficients: np.ndarray, level: int) -> np.ndarray:
        """The decomposition digits of coefficient rows ``coefficients`` over the key basis.

        Returns ``(d, K, N)`` in coefficient form: digit ``g`` is the residue
        of the polynomial modulo its group's primes, lifted to every key prime
        by fast base conversion (:meth:`CkksContext.base_conversion`).  A digit
        of one prime is that residue row itself, reduced modulo each key prime.
        """
        primes = self.context.key_basis(level).primes_column
        inverses, factors = self.context.base_conversion(level)
        scaled = (coefficients * inverses % primes[: len(coefficients)]).view(np.uint64)
        groups = self.context.digit_groups(level)
        digits = np.empty((len(groups), len(primes), coefficients.shape[-1]), dtype=np.int64)
        for g, group in enumerate(groups):
            digits[g] = _multiply_accumulate(
                scaled[group, np.newaxis], factors[:, group, :, np.newaxis], primes
            )[0]
        return digits

    def _digit_ntts(self, poly: RnsPolynomial, level: int) -> np.ndarray:
        """Forward NTT of every decomposition digit of ``poly`` over the key basis (ModUp).

        Returns a ``(d, K, N)`` array: row ``g`` holds the NTT (one row per
        key-basis prime) of ``poly``'s ``g``-th digit lifted to the key basis.
        Either form costs ``d*K`` rows.
        """
        key_basis = self.context.key_basis(level)
        if poly.form == EVAL:
            return self._digit_ntts_of_evaluations(poly, level, key_basis)
        # Lift every digit to all key primes, then transform the whole
        # (d, K, N) digit matrix in one kernel pass.
        return key_basis.kernel.forward(self._digits(poly.residues, level))

    def _hoisted(
        self, a: Ciphertext, c0: RnsPolynomial, c1: RnsPolynomial
    ) -> Tuple[np.ndarray, RnsPolynomial]:
        """What every rotation of the ciphertext ``a = (c0, c1)`` shares: the
        digit NTTs of ``c1`` and ``c0`` extended.

        Remembered by the identity of the ciphertext's own polynomials,
        whatever their form, so a group of rotations of one ciphertext
        decomposes and lifts once — and so does the ``add`` that meets the
        ciphertext again afterwards — until ``a`` is released (:meth:`forget`).
        """
        entry = self._remembered(c0, c1)
        if entry is None:
            lifted = c0 if c0.basis.special else self._lift(c0, a.level)
            entry = (c1, c0, self._digit_ntts(c1, a.level), lifted, id(a))
            with self._hoist_lock:
                self._hoist_cache[id(c1)] = entry
                while len(self._hoist_cache) > _HOIST_CACHE_CAPACITY:
                    self._hoist_cache.popitem(last=False)
        return entry[2], entry[3]

    def forget(self, a: Ciphertext) -> None:
        """Drop the hoisting-cache entries of a ciphertext being released (one per
        ``c1`` it was rotated with), so none outlives it, pins it or keeps its digits."""
        with self._hoist_lock:
            for key in [key for key, entry in self._hoist_cache.items() if entry[4] == id(a)]:
                del self._hoist_cache[key]

    def _digit_ntts_of_evaluations(
        self, poly: RnsPolynomial, level: int, key_basis: RnsBasis
    ) -> np.ndarray:
        """The digit matrix of an evaluation-form ``poly``: L inverse + d*K - L forward rows.

        A digit lifted to its own group's primes is ``poly``'s residue rows
        there, so those rows of its transform are ``poly``'s evaluation rows
        and are not recomputed; the digits themselves need ``poly``'s
        coefficients.
        """
        kernel = poly.basis.kernel
        count = len(poly.basis)
        digits = self._digits(kernel.inverse(poly.residues), level)
        groups = self.context.digit_groups(level)
        group_of = np.repeat(np.arange(len(groups)), [g.stop - g.start for g in groups])
        own = np.arange(count)
        digit_ntts = np.empty(digits.shape, dtype=np.int64)
        digit_ntts[group_of, own] = poly.residues
        special = key_basis.kernel.rows(count, len(key_basis))
        digit_ntts[:, count:] = special.forward(digits[:, count:])
        if len(groups) > 1:
            # Pass b over the data primes: prime i transforms digit (g_i + 1 + b) mod d,
            # g_i its own group's, so every prime meets every digit but its own.
            digit = (group_of + 1 + np.arange(len(groups) - 1).reshape(-1, 1)) % len(groups)
            digit_ntts[digit, own] = kernel.forward(digits[digit, own])
        return digit_ntts

    def _key_switch_totals(
        self,
        digit_ntts: np.ndarray,
        switching_key: KeySwitchingKey,
        level: int,
        permutation: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``sum_g digit_g * key_g`` for both key halves, as ``(2, K, N)`` evaluations.

        This is the switched pair times ``P``, over the key basis.
        ``permutation`` (a Galois NTT permutation) is applied to the digits on
        the fly, which is how hoisted rotations reuse one decomposition.  The
        key is read in its level-0 form: level ``l`` reads, as views, its first
        ``d_l`` digits over its ``L_l`` data rows and over the special rows.
        """
        key_basis = self.context.key_basis(level)
        primes = key_basis.primes_column
        form = switching_key.evaluation_form(self.context)
        if permutation is not None:
            digit_ntts = np.take(digit_ntts, permutation, axis=-1)
        digits, rows = digit_ntts.shape[:2]
        if rows == form.shape[2]:
            return _multiply_accumulate(digit_ntts, form, primes)
        count = rows - key_basis.special
        data = _multiply_accumulate(
            digit_ntts[:, :count], form[:, :digits, :count], primes[:count]
        )
        special = _multiply_accumulate(
            digit_ntts[:, count:], form[:, :digits, -key_basis.special :], primes[count:]
        )
        return np.concatenate([data, special], axis=1)

    def relinearize(self, a: Ciphertext) -> Ciphertext:
        """Reduce a three-polynomial ciphertext back to two polynomials.

        An evaluation-form ciphertext comes back *extended*: ``(P*c0 + t0,
        P*c1 + t1)`` over the key basis, the division by ``P`` left to
        ``rescale_to_next`` (which folds it into its own) or ``settle``.
        """
        if self.relin_key is None:
            raise ParameterError("no relinearization key available")
        if a.size == 2:
            return a.copy()
        if a.size != 3:
            raise PolynomialCountError(
                f"relinearization supports ciphertexts of size 3, got {a.size}"
            )
        c0, c1, c2 = a.settle()
        digit_ntts = self._digit_ntts(c2, a.level)
        totals = self._key_switch_totals(digit_ntts, self.relin_key.key, a.level)
        key_basis = self.context.key_basis(a.level)
        if not c0.form == c1.form == EVAL:
            # Both totals back in one inverse pass, divided by P in coefficient form.
            ks0, ks1 = (
                RnsPolynomial(key_basis, rows).divide_and_round_last(key_basis.special)
                for rows in key_basis.kernel.inverse(totals)
            )
            return Ciphertext([c0.add(ks0), c1.add(ks1)], a.scale, a.level)
        data = len(key_basis) - key_basis.special
        primes = key_basis.primes_column[:data]
        lifted = np.stack([c0.residues, c1.residues]) * key_basis.special_multiplier()
        totals[:, :data] = (totals[:, :data] + lifted) % primes
        polys = [RnsPolynomial(key_basis, rows, EVAL) for rows in totals]
        return Ciphertext(polys, a.scale, a.level)

    def rotate(self, a: Ciphertext, steps: int) -> Ciphertext:
        """Rotate the slots left by ``steps`` (negative values rotate right).

        Returns ``[perm(P*c0) + t0, round(t1 / P)]`` for the key-switch
        totals ``(t0, t1)`` of the permuted ``c1``: ``c0`` extended, the
        automorphism a slot permutation and the division by ``P`` still owed;
        ``c1`` — which the next rotation decomposes — settled in the form it
        arrived in.  So a rotation transforms the ``d*K`` digit rows forward
        and ``K`` rows back (coefficient ``c1``: all of them; evaluation: the
        ``k`` special rows back and the correction's ``L`` forward).

        The decomposition of ``c1`` and the lift of a settled ``c0`` are
        hoisted: computed once (and cached by ciphertext identity), and each
        rotation applies its Galois element as an index permutation of them —
        rotating the same ciphertext by k different steps costs one
        decomposition instead of k.
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
        c0, c1 = a.settle(first=1)
        digit_ntts, extended = self._hoisted(a, c0, c1)
        permutation = galois_ntt_permutation(self.context.poly_modulus_degree, element)
        totals = self._key_switch_totals(digit_ntts, switching_key, a.level, permutation)
        key_basis = self.context.key_basis(a.level)
        t0, t1 = (RnsPolynomial(key_basis, rows, EVAL) for rows in totals)
        if c1.form == COEFF:
            t1 = t1.to_coeff()
        rotated = [
            extended.automorphism(element).add(t0),
            t1.divide_and_round_last(key_basis.special),
        ]
        return Ciphertext(rotated, a.scale, a.level)

    # -- modulus chain -----------------------------------------------------------------------
    def rescale_to_next(self, a: Ciphertext) -> Ciphertext:
        """Divide the ciphertext (and its scale) by the next prime in the chain.

        An extended polynomial divides by the special primes and the next prime
        together, which is what it was left extended for.
        """
        if a.level >= self.context.max_level - 1:
            raise ModulusExhaustedError("cannot rescale: no prime left to divide away")
        polys = [p.divide_and_round_last(p.basis.special + 1) for p in a.polys]
        return Ciphertext(polys, a.scale / self.context.prime_at_level(a.level), a.level + 1)

    def mod_switch_to_next(self, a: Ciphertext) -> Ciphertext:
        """Drop the next prime in the chain without changing the scale."""
        if a.level >= self.context.max_level - 1:
            raise ModulusExhaustedError("cannot switch modulus: no prime left to drop")
        polys = [p.drop_last() for p in a.settle()]
        return Ciphertext(polys, a.scale, a.level + 1)
