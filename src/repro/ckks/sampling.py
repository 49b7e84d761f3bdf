"""Randomness for RLWE key generation and encryption: secret and public, kept apart.

**Secret** randomness — the ternary secret key and encryption mask, the
narrow discrete Gaussian errors (SEAL's default standard deviation, 3.2) —
comes from :class:`RlweSampler`, a ``numpy`` generator whose raw output is
never published.

**Public** randomness — the uniform half of every public key, switching key
and fresh ciphertext — is not drawn from that generator at all.  It is the
deterministic expansion of a 32-byte seed (:func:`expand_uniform`), so both
ends of a connection can compute it and only the seed travels.  Seeds come
from :class:`SeedSource`: the operating system's generator, or — under a test
seed — a generator *spawned* from it, which shares no output with the secret
stream.

The expander, byte for byte
---------------------------
Row ``k`` of ``expand_uniform(seed, label, primes, n)`` is a function of
``(seed, label, primes[k], n)`` only:

1. the XOF input is ``seed`` (32 bytes) ``‖ label`` (UTF-8) ``‖ prime`` (8
   bytes, little-endian) — the fixed-width ends make the split unambiguous;
2. the SHAKE-256 output stream is read as consecutive 32-bit little-endian
   words ``w``;
3. a word is *accepted* when ``w < floor(2^32 / q) * q`` (rejection sampling:
   the accepted words are uniform over a whole number of copies of ``[0, q)``);
4. the row is ``w mod q`` of the first ``n`` accepted words, in stream order.

The result does not depend on how many words an implementation squeezes at a
time — an XOF's longer output extends its shorter one — so
:func:`_first_draw` is a private sizing choice, not part of the definition.
What the ``n`` values *mean* (coefficients, or evaluations at which points) is
the caller's contract: see :mod:`repro.ckks.keys` and
:mod:`repro.ckks.encryptor`.
"""

from __future__ import annotations

import hashlib
import math
import secrets
from typing import Optional, Sequence

import numpy as np

from ..errors import ParameterError
from .rns import RnsBasis, RnsPolynomial

#: SEAL's default RLWE error standard deviation.
ERROR_STDDEV = 3.2

#: Length of a public seed.
SEED_BYTES = 32

_WORD_SPACE = 1 << 32


def _first_draw(n: int, prime: int) -> int:
    """Words to squeeze first: the expected need plus six standard deviations."""
    accept = (_WORD_SPACE // prime) * prime / _WORD_SPACE
    return int((n + 6.0 * math.sqrt(n * (1.0 - accept))) / accept) + 16


def _expand_row(seed: bytes, label: str, prime: int, n: int) -> np.ndarray:
    xof_input = seed + label.encode("utf-8") + int(prime).to_bytes(8, "little")
    limit = (_WORD_SPACE // prime) * prime
    words = _first_draw(n, prime)
    while True:
        stream = np.frombuffer(hashlib.shake_256(xof_input).digest(4 * words), dtype="<u4")
        accepted = stream[stream < limit]
        if len(accepted) >= n:
            return (accepted[:n] % prime).astype(np.int64)
        words *= 2  # the longer stream starts with the shorter one


def expand_uniform(seed: bytes, label: str, primes: Sequence[int], n: int) -> np.ndarray:
    """The ``(len(primes), n)`` uniform residue rows named by ``(seed, label)``.

    Row ``k`` is uniform over ``[0, primes[k])`` and independent of the other
    primes asked for, so a restriction to fewer primes expands fewer rows.
    """
    if not isinstance(seed, bytes) or len(seed) != SEED_BYTES:
        raise ParameterError(f"a public seed is {SEED_BYTES} bytes")
    return np.stack([_expand_row(seed, label, int(prime), int(n)) for prime in primes])


#: Generator streams under one test seed.  Stream 0 is the seed's own generator
#: (so a fixed seed still yields the secret key it always did); the others are
#: spawned from it and share no output with it or each other.
KEYGEN_SECRETS, ENCRYPTION_SECRETS, KEY_SEEDS, CIPHERTEXT_SEEDS = range(4)


def _generator(seed: Optional[int], stream: int) -> np.random.Generator:
    if seed is None or stream == 0:
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(stream)[-1])


class SeedSource:
    """Fresh 32-byte public seeds; no two calls return the same one.

    Without a test seed they are the operating system's randomness.  With
    one they come from a generator spawned (``SeedSequence.spawn``) from it —
    reproducible, advanced on every call, and never a generator that
    :class:`RlweSampler` draws secrets from.
    """

    def __init__(self, seed: Optional[int], stream: int) -> None:
        self._rng = None if seed is None else _generator(seed, stream)

    def next_seed(self) -> bytes:
        if self._rng is None:
            return secrets.token_bytes(SEED_BYTES)
        return self._rng.bytes(SEED_BYTES)


class RlweSampler:
    """Samples the *secret* polynomials of key generation and encryption."""

    def __init__(self, seed: Optional[int] = None, stream: int = KEYGEN_SECRETS) -> None:
        self._rng = _generator(seed, stream)

    def ternary(self, basis: RnsBasis) -> RnsPolynomial:
        """Centered ternary polynomial (coefficients in ``{-1, 0, 1}``)."""
        coeffs = self.ternary_coefficients(basis.poly_modulus_degree)
        return RnsPolynomial.from_int64_coefficients(basis, coeffs)

    def error(self, basis: RnsBasis, stddev: float = ERROR_STDDEV) -> RnsPolynomial:
        """Discrete-Gaussian-like error polynomial (rounded normal samples)."""
        coeffs = self.error_coefficients(basis.poly_modulus_degree, stddev)
        return RnsPolynomial.from_int64_coefficients(basis, coeffs)

    def ternary_coefficients(self, poly_modulus_degree: int) -> np.ndarray:
        """Raw ternary coefficient vector (used for the secret key)."""
        return self._rng.integers(-1, 2, poly_modulus_degree, dtype=np.int64)

    def error_coefficients(
        self, poly_modulus_degree: int, stddev: float = ERROR_STDDEV
    ) -> np.ndarray:
        """Raw error coefficient vector."""
        return np.round(self._rng.normal(0.0, stddev, poly_modulus_degree)).astype(np.int64)
