"""CKKS encoder: canonical-embedding encoding of complex/real vectors.

A CKKS plaintext polynomial ``m(X)`` of degree ``< N`` encodes ``N/2`` complex
slots: slot ``k`` holds ``m(zeta^{5^k}) / scale`` where ``zeta`` is a primitive
``2N``-th root of unity.  Encoding inverts this embedding, scales by the
fixed-point scale, and rounds to integer coefficients.

The embedding is one length-``N`` complex FFT.  Evaluating ``m`` at every odd
power of ``zeta`` is a *twisted* DFT::

    m(zeta^(2t+1)) = sum_j (c_j zeta^j) e^{2 pi i j t / N} = N * ifft(c * twist)[t]

with ``twist[j] = zeta^j = e^{i pi j / N}``.  Slot ``k`` is the entry at
``t = (5^k - 1) / 2`` and its complex conjugate sits at ``N - 1 - t`` (the
root ``zeta^{-5^k}``).  Encoding scatters the slots and their conjugates to
those positions, runs the forward FFT and removes the twist; the result is
real up to rounding because the evaluation vector is conjugate-symmetric.
Tables are O(N) and both directions cost O(N log N), so the paper's ring
dimensions (N = 16384, 32768) are as constructible as the small ones.
"""

from __future__ import annotations

from typing import Dict, Sequence, Union

import numpy as np

from ..errors import EncodingError

_ENCODER_CACHE: Dict[int, "CkksEncoder"] = {}


class CkksEncoder:
    """Encode/decode vectors of complex numbers into integer coefficient vectors."""

    def __init__(self, poly_modulus_degree: int) -> None:
        n = int(poly_modulus_degree)
        if n & (n - 1) or n < 4:
            raise EncodingError("polynomial degree must be a power of two >= 4")
        self.poly_modulus_degree = n
        self.slots = n // 2
        rot_group = np.empty(self.slots, dtype=np.int64)
        power = 1
        for i in range(self.slots):
            rot_group[i] = power
            power = (power * 5) % (2 * n)
        #: FFT position of slot ``k``'s root ``zeta^{5^k}`` and of its conjugate.
        self.index = (rot_group - 1) // 2
        self.conj_index = n - 1 - self.index
        #: ``twist[j] = zeta^j``: turns the negacyclic evaluation into a plain DFT.
        self.twist = np.exp(1j * np.pi * np.arange(n) / n)

    # -- public API ---------------------------------------------------------------
    def encode(self, values: Union[Sequence[float], np.ndarray], scale: float) -> np.ndarray:
        """Encode a vector into int64 plaintext coefficients at the given scale.

        The input length must divide the slot count; shorter vectors are
        replicated (the EVA input-replication rule) and scalars broadcast.
        """
        array = np.atleast_1d(np.asarray(values, dtype=np.complex128)).ravel()
        if array.size == 0 or array.size > self.slots:
            raise EncodingError(
                f"cannot encode {array.size} values into {self.slots} slots"
            )
        if self.slots % array.size != 0:
            raise EncodingError(
                f"input length {array.size} must divide the slot count {self.slots}"
            )
        if not np.all(np.isfinite(array)):
            raise EncodingError("cannot encode non-finite values (NaN or infinity)")
        if array.size < self.slots:
            array = np.tile(array, self.slots // array.size)
        evaluations = np.empty(self.poly_modulus_degree, dtype=np.complex128)
        evaluations[self.index] = array
        evaluations[self.conj_index] = np.conj(array)
        coeffs = np.real(np.fft.fft(evaluations) * np.conj(self.twist))
        scaled = coeffs * (float(scale) / self.poly_modulus_degree)
        if float(np.max(np.abs(scaled))) >= 2**62:
            raise EncodingError(
                "encoded coefficients overflow 63 bits; lower the scale"
            )
        return np.round(scaled).astype(np.int64)

    def decode(self, coefficients: Union[Sequence[int], np.ndarray], scale: float) -> np.ndarray:
        """Decode centered integer coefficients back into complex slot values."""
        coeffs = np.asarray(coefficients, dtype=np.float64)
        if coeffs.size != self.poly_modulus_degree:
            raise EncodingError(
                f"expected {self.poly_modulus_degree} coefficients, got {coeffs.size}"
            )
        if not float(scale) > 0.0:
            raise EncodingError(f"cannot decode at scale {scale}; it must be positive")
        evaluations = np.fft.ifft(coeffs * self.twist)
        return evaluations[self.index] * (self.poly_modulus_degree / float(scale))

    def decode_real(self, coefficients: Union[Sequence[int], np.ndarray], scale: float) -> np.ndarray:
        """Decode and return only the real parts of the slots."""
        return np.real(self.decode(coefficients, scale))


def get_encoder(poly_modulus_degree: int) -> CkksEncoder:
    """Return a cached encoder for the given ring dimension."""
    encoder = _ENCODER_CACHE.get(int(poly_modulus_degree))
    if encoder is None:
        encoder = CkksEncoder(poly_modulus_degree)
        _ENCODER_CACHE[int(poly_modulus_degree)] = encoder
    return encoder
