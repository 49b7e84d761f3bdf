"""Number-theoretic utilities for the RNS-CKKS implementation.

Provides deterministic Miller-Rabin primality testing, generation of
NTT-friendly primes (primes ``p ≡ 1 (mod 2N)`` so that negacyclic NTTs of
length ``N`` exist), primitive roots of unity, and modular inverses.

All primes generated here are kept below 2^31 so that products of two
residues fit comfortably in a signed 64-bit integer, which lets the NTT and
all polynomial arithmetic run as vectorized ``numpy`` ``int64`` operations.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import ParameterError

#: Largest supported prime bit size (residue products must fit in int64).
MAX_PRIME_BITS = 30

#: Witnesses sufficient for deterministic Miller-Rabin below 3.3 * 10^24.
_MILLER_RABIN_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 64-bit integers."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for witness in _MILLER_RABIN_WITNESSES:
        if witness % n == 0:
            continue
        x = pow(witness, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_ntt_primes(bit_sizes: Sequence[int], poly_modulus_degree: int) -> List[int]:
    """Generate distinct primes ``p ≡ 1 (mod 2N)``, one near ``2^b`` per requested ``b``.

    Unlike SEAL (the largest unused prime below ``2^b``), each is the first
    unused prime found searching outward from ``2^b`` in steps of 2N, above
    before below, so a nominal ``b``-bit prime may have ``b + 1`` bits:
    ``rotate_sum``'s ``[25, 25, 28, 28]`` at N = 4096 have 25, 26, 29 and 28
    bits.  The compiler does not yet know this prime supply (ROADMAP 10(a)).
    """
    modulus = 2 * poly_modulus_degree
    chosen: List[int] = []
    for bits in bit_sizes:
        bits = int(bits)
        if bits < 2 or bits > MAX_PRIME_BITS:
            raise ParameterError(
                f"prime bit size {bits} is outside the supported range "
                f"[2, {MAX_PRIME_BITS}] of the pure-Python CKKS backend"
            )
        # Search outward from 2^bits so the chosen prime is as close as
        # possible to the nominal power of two; the EVA executor treats
        # rescaling as division by the power of two (paper, footnote 1), so
        # prime proximity directly bounds the systematic rescale error.
        base = (1 << bits) - (((1 << bits) - 1) % modulus)
        candidate = None
        for offset in range(0, 1 << max(bits - 10, 12)):
            for value in (base + offset * modulus, base - offset * modulus):
                if value <= (1 << (bits - 1)) or value >= (1 << 31):
                    continue
                if is_prime(value) and value not in chosen:
                    candidate = value
                    break
            if candidate is not None:
                break
        if candidate is None:
            raise ParameterError(
                f"no {bits}-bit NTT prime exists for polynomial degree {poly_modulus_degree}"
            )
        chosen.append(candidate)
    return chosen


def mod_inverse(value: int, modulus: int) -> int:
    """Modular inverse via Python's built-in extended Euclid (``pow(-1)``)."""
    try:
        return pow(value % modulus, -1, modulus)
    except ValueError as exc:  # pragma: no cover - defensive
        raise ParameterError(f"{value} has no inverse modulo {modulus}") from exc


def find_primitive_root(order: int, modulus: int) -> int:
    """Find a primitive ``order``-th root of unity modulo a prime ``modulus``.

    ``order`` must divide ``modulus - 1`` and be a power of two (the only case
    the NTT needs).
    """
    if (modulus - 1) % order != 0:
        raise ParameterError(f"{order} does not divide {modulus - 1}")
    cofactor = (modulus - 1) // order
    for generator in range(2, modulus):
        candidate = pow(generator, cofactor, modulus)
        if pow(candidate, order // 2, modulus) != 1:
            return candidate
    raise ParameterError(f"no primitive {order}-th root of unity modulo {modulus}")
