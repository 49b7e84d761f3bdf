"""Coefficient-domain key switching, kept as a test oracle.

These are the ``_key_switch_reference`` / ``_rotate_reference`` methods
``repro.ckks.evaluator.Evaluator`` shipped behind its ``fast_keyswitch=False``
switch before the switch was deleted, moved here verbatim (only the imports
changed).  One forward/inverse NTT pair per decomposition digit per key prime,
built from ``RnsPolynomial.multiply`` with nothing cached and nothing hoisted —
the independent definition the production NTT-domain pipeline is pinned
against in ``tests/test_kernel_properties.py`` (bit-exact for relinearization,
noise-level for hoisted rotations) and timed against in
``benchmarks/bench_ckks_kernels.py``.

:class:`ReferenceEvaluator` is an ``Evaluator`` whose two key-switching entry
points (``relinearize``, ``rotate``) run the production prologue and then the
reference path; everything else is inherited, so both sides of a comparison
share the same keys, checks and arithmetic outside key switching.  The
reference path predates form-carrying polynomials: both entry points first
bring their operand to coefficient form (settling an extended one), and
answer in it.  A seeded key half is likewise written out in coefficient form
(one inverse transform of its expansion, kept for the next switch so timings
against this path stay about key switching), so the oracle also checks that
the production path reads the seed as the same polynomial.
"""

from __future__ import annotations

from typing import Tuple

from repro.ckks.ciphertext import Ciphertext
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeySwitchingKey, SeededUniform
from repro.ckks.rns import RnsPolynomial
from repro.errors import ParameterError, PolynomialCountError


def coefficient_form(cipher: Ciphertext) -> Ciphertext:
    """``cipher`` settled and in coefficient form, as every value was before forms."""
    return Ciphertext(cipher.to_coeff(), cipher.scale, cipher.level)


class ReferenceEvaluator(Evaluator):
    """An ``Evaluator`` that key-switches in the coefficient domain."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._written_out = {}  # seeded key half -> its coefficient form

    def relinearize(self, a: Ciphertext) -> Ciphertext:
        """The production ``relinearize`` prologue, then the reference key switch."""
        if self.relin_key is None:
            raise ParameterError("no relinearization key available")
        if a.size == 2:
            return a.copy()
        if a.size != 3:
            raise PolynomialCountError(
                f"relinearization supports ciphertexts of size 3, got {a.size}"
            )
        c0, c1, c2 = a.to_coeff()
        ks0, ks1 = self._key_switch_reference(c2, self.relin_key.key, a.level)
        return Ciphertext([c0.add(ks0), c1.add(ks1)], a.scale, a.level)

    def rotate(self, a: Ciphertext, steps: int) -> Ciphertext:
        """The production ``rotate`` prologue, then the reference rotation."""
        if self.galois_keys is None:
            raise ParameterError("no Galois keys available")
        steps = int(steps) % self.context.slots
        if steps == 0:
            return a.copy()
        if a.size != 2:
            raise PolynomialCountError("rotation requires a relinearized ciphertext")
        element = self.context.galois_element_for_step(steps)
        switching_key = self.galois_keys.key_for(element)
        return self._rotate_reference(coefficient_form(a), element, switching_key)

    def _key_switch_reference(
        self, poly: RnsPolynomial, switching_key: KeySwitchingKey, level: int
    ) -> Tuple[RnsPolynomial, RnsPolynomial]:
        """Coefficient-domain key switch (property-test oracle for the fast path)."""
        context = self.context
        data_basis = poly.basis
        key_basis = context.key_basis(level)
        acc0 = RnsPolynomial.zero(key_basis)
        acc1 = RnsPolynomial.zero(key_basis)
        for row, prime in enumerate(data_basis.primes):
            pair = switching_key.pairs.get(prime)
            if pair is None:
                raise ParameterError(f"switching key is missing the digit for prime {prime}")
            digit = RnsPolynomial.from_int64_coefficients(key_basis, poly.residues[row])
            b_j, a_j = pair
            if isinstance(a_j, SeededUniform):  # the oracle multiplies coefficient forms
                if a_j not in self._written_out:
                    self._written_out[a_j] = a_j.coefficients(b_j.basis)
                a_j = self._written_out[a_j]
            b_j = context.restrict(b_j, key_basis)
            a_j = context.restrict(a_j, key_basis)
            acc0 = acc0.add(digit.multiply(b_j))
            acc1 = acc1.add(digit.multiply(a_j))
        return acc0.divide_and_round_last(), acc1.divide_and_round_last()

    def _rotate_reference(
        self, a: Ciphertext, element: int, switching_key: KeySwitchingKey
    ) -> Ciphertext:
        """Rotate via coefficient-domain automorphism + reference key switch."""
        c0 = a.polys[0].automorphism(element)
        c1 = a.polys[1].automorphism(element)
        ks0, ks1 = self._key_switch_reference(c1, switching_key, a.level)
        return Ciphertext([c0.add(ks0), ks1], a.scale, a.level)
