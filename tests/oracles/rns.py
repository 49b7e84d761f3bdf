"""Row-at-a-time RNS rescale and CRT composition, kept as test oracles.

The exact big-integer face of an RNS polynomial lives here too, because only
tests need it: ``basis_modulus`` (the product of a basis's primes),
``to_int_coefficients`` / ``from_int_coefficients`` (vectorized CRT
composition and reduction of arbitrary-precision coefficients) and
``restrict`` (a polynomial's rows over a sub-basis).

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

import math
from typing import Iterable, List

import numpy as np

from repro.ckks.numth import mod_inverse
from repro.ckks.rns import RnsBasis, RnsPolynomial
from repro.errors import ParameterError


def basis_modulus(basis: RnsBasis) -> int:
    """The product ``Q`` of the basis's primes."""
    return math.prod(basis.primes)


def to_int_coefficients(poly: RnsPolynomial) -> List[int]:
    """CRT-compose the residues into exact centered integer coefficients."""
    total = basis_modulus(poly.basis)
    composed = np.zeros(poly.basis.poly_modulus_degree, dtype=object)
    for row, prime in zip(poly.to_coeff().residues, poly.basis.primes):
        quotient = total // prime
        composed += row.astype(object) * (quotient * mod_inverse(quotient, prime) % total)
    composed %= total
    return [int(c - total) if c > total // 2 else int(c) for c in composed]


def from_int_coefficients(basis: RnsBasis, coeffs: Iterable[int]) -> RnsPolynomial:
    """Build from (possibly negative, possibly large) integer coefficients."""
    values = np.asarray(list(coeffs), dtype=object)
    n = basis.poly_modulus_degree
    if values.shape != (n,):
        raise ParameterError(f"expected {n} coefficients, got {len(values)}")
    return RnsPolynomial(
        basis, np.stack([(values % prime).astype(np.int64) for prime in basis.primes])
    )


def restrict(poly: RnsPolynomial, basis: RnsBasis) -> RnsPolynomial:
    """``poly``'s rows over a basis whose primes are a subset of its own, in its form."""
    index_of = {prime: i for i, prime in enumerate(poly.basis.primes)}
    try:
        rows = [poly.residues[index_of[prime]] for prime in basis.primes]
    except KeyError as exc:
        raise ParameterError("target basis is not contained in the source basis") from exc
    return RnsPolynomial(basis, np.stack(rows), poly.form)


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
    total = basis_modulus(poly.basis)
    half = total // 2
    n = poly.basis.poly_modulus_degree
    composed = [0] * n
    for index, prime in enumerate(poly.basis.primes):
        quotient = total // prime
        factor = (quotient * mod_inverse(quotient, prime)) % total
        row = poly.residues[index]
        for position in range(n):
            composed[position] = (composed[position] + int(row[position]) * factor) % total
    return [c - total if c > half else c for c in composed]
