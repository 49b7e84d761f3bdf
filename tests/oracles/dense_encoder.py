"""Dense CKKS encoder: the O(N^2) embedding matrix, kept as a test oracle.

This is the encoder ``repro.ckks.encoder`` shipped before the twisted-FFT
embedding replaced it, moved here verbatim (only the imports and the class
name changed, and the process-wide cache dropped).  It materialises the
explicit Vandermonde-style matrix ``U[k, j] = zeta^{5^k * j}`` over the
rotation group, so every slot value is one literal dot product with no FFT
indexing to get wrong -- the independent definition the production encoder is
compared against, coefficient by coefficient, in ``tests/test_encoder_fft.py``
and timed against in ``benchmarks/bench_ckks_kernels.py``.

It is O(N^2) in memory (16 N^2 / 2 bytes: 8 MB at N=1024, 134 MB at N=4096),
so tests keep to N <= 1024 and only the kernel benchmark builds N=4096.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.errors import EncodingError

#: Largest ring dimension for which the dense embedding matrix is built.
MAX_ENCODER_DEGREE = 8192


class DenseCkksEncoder:
    """Encode/decode vectors of complex numbers into integer coefficient vectors."""

    def __init__(self, poly_modulus_degree: int) -> None:
        n = int(poly_modulus_degree)
        if n & (n - 1) or n < 4:
            raise EncodingError("polynomial degree must be a power of two >= 4")
        if n > MAX_ENCODER_DEGREE:
            raise EncodingError(
                f"the dense CKKS encoder supports N <= {MAX_ENCODER_DEGREE}, got {n}"
            )
        self.poly_modulus_degree = n
        self.slots = n // 2
        m = 2 * n
        rot_group = np.empty(self.slots, dtype=np.int64)
        power = 1
        for i in range(self.slots):
            rot_group[i] = power
            power = (power * 5) % m
        self.rot_group = rot_group
        roots = np.exp(2j * np.pi * np.arange(m) / m)
        exponents = np.outer(rot_group, np.arange(n)) % m
        #: Embedding matrix U with U[k, j] = zeta^{rot_group[k] * j}.
        self.embedding = roots[exponents]

    # -- public API ---------------------------------------------------------------
    def encode(self, values: Union[Sequence[float], np.ndarray], scale: float) -> np.ndarray:
        """Encode a vector into int64 plaintext coefficients at the given scale.

        The input length must divide the slot count; shorter vectors are
        replicated (the EVA input-replication rule) and scalars broadcast.
        """
        array = np.atleast_1d(np.asarray(values, dtype=np.complex128)).ravel()
        if array.size > self.slots:
            raise EncodingError(
                f"cannot encode {array.size} values into {self.slots} slots"
            )
        if self.slots % array.size != 0:
            raise EncodingError(
                f"input length {array.size} must divide the slot count {self.slots}"
            )
        if array.size < self.slots:
            array = np.tile(array, self.slots // array.size)
        # Re(U^H a) == Re(conj(a) @ U): conjugating the length-N/2 vector
        # avoids materializing conj(U).T — a fresh O(N^2) complex matrix per
        # encode that profiling showed dominating lane-batched programs.
        coeffs = (2.0 / self.poly_modulus_degree) * np.real(
            np.conj(array) @ self.embedding
        )
        scaled = coeffs * float(scale)
        max_coeff = float(np.max(np.abs(scaled))) if scaled.size else 0.0
        if max_coeff >= 2**62:
            raise EncodingError(
                "encoded coefficients overflow 63 bits; lower the scale"
            )
        return np.round(scaled).astype(np.int64)

    def decode(self, coefficients: Union[Sequence[int], np.ndarray], scale: float) -> np.ndarray:
        """Decode centered integer coefficients back into complex slot values."""
        coeffs = np.asarray(
            [float(c) for c in coefficients], dtype=np.float64
        )
        if coeffs.size != self.poly_modulus_degree:
            raise EncodingError(
                f"expected {self.poly_modulus_degree} coefficients, got {coeffs.size}"
            )
        slots = self.embedding @ coeffs
        return slots / float(scale)

    def decode_real(self, coefficients: Union[Sequence[int], np.ndarray], scale: float) -> np.ndarray:
        """Decode and return only the real parts of the slots."""
        return np.real(self.decode(coefficients, scale))
