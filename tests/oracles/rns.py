"""Row-at-a-time RNS rescale and CRT composition, kept as test oracles.

``divide_and_round_last_reference`` and ``to_int_coefficients_reference`` are
the ``RnsPolynomial`` methods of those names as they shipped in
``repro.ckks.rns``, moved here verbatim (``self`` became ``poly``; they read
only public fields).  They re-derive every inverse and CRT factor on each
call and touch one row — or one coefficient — at a time, which is what makes
them independent of the vectorized kernels they pin in
``tests/test_kernel_properties.py`` and ``tests/test_ckks_forms.py``.

``divide_and_round_sequential`` is the definition the fused
``divide_and_round_last(count)`` is held to: ``count`` single reference
divisions, one after the other, in coefficient form.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.ckks.numth import mod_inverse
from repro.ckks.rns import RnsPolynomial
from repro.errors import ParameterError


def divide_and_round_last_reference(poly: RnsPolynomial) -> RnsPolynomial:
    """Row-at-a-time rescale re-deriving the inverses (property-test oracle)."""
    if len(poly.basis) < 2:
        raise ParameterError("cannot rescale away the only prime of the basis")
    last_prime = poly.basis.primes[-1]
    last_row = poly.residues[-1]
    centered = np.where(last_row > last_prime // 2, last_row - last_prime, last_row)
    new_basis = poly.basis.drop_last()
    rows = []
    for index, prime in enumerate(new_basis.primes):
        inv = mod_inverse(last_prime, prime)
        diff = (poly.residues[index] - centered) % prime
        rows.append(diff * inv % prime)
    return RnsPolynomial(new_basis, np.stack(rows))


def divide_and_round_sequential(poly: RnsPolynomial, count: int) -> RnsPolynomial:
    """``count`` reference divisions in a row, on the coefficient form of ``poly``."""
    poly = poly.to_coeff()
    for _ in range(count):
        poly = divide_and_round_last_reference(poly)
    return poly


def to_int_coefficients_reference(poly: RnsPolynomial) -> List[int]:
    """Pure-Python CRT composition (property-test oracle for the fast path)."""
    modulus = poly.basis.modulus()
    half = modulus // 2
    n = poly.basis.poly_modulus_degree
    composed = [0] * n
    for index, prime in enumerate(poly.basis.primes):
        quotient = modulus // prime
        factor = (quotient * mod_inverse(quotient, prime)) % modulus
        row = poly.residues[index]
        for position in range(n):
            composed[position] = (composed[position] + int(row[position]) * factor) % modulus
    return [c - modulus if c > half else c for c in composed]
