"""Textbook row-at-a-time negacyclic NTT, kept as a test oracle.

``forward_reference`` / ``inverse_reference`` are the ``NttContext`` methods
of those names as they shipped in ``repro.ckks.ntt``, moved here verbatim
with the twiddle tables they read: pre-twist by powers of ``psi``,
bit-reversal gather, Cooley-Tukey butterflies with a full ``%`` per stage.
They answer in *natural* slot order (slot ``k`` holds the evaluation at
``psi^(2k+1)``); the production kernel's output is that vector indexed by
``bit_reverse_indices``.  The oracle shares only the root ``psi`` with the
kernel it pins (so both evaluate at the same points) and rebuilds every table
from ``(prime, N, psi)`` by plain repeated multiplication.  It is compared
against the kernel in ``tests/test_kernel_properties.py`` and
``tests/test_seeded.py`` and timed against it in
``benchmarks/bench_ckks_kernels.py``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.ckks.ntt import bit_reverse_indices, get_ntt_kernel


def _powers(root: int, prime: int, n: int) -> np.ndarray:
    """``[root**e mod prime for e < n]``."""
    table = np.ones(n, dtype=np.int64)
    for exponent in range(1, n):
        table[exponent] = int(table[exponent - 1]) * root % prime
    return table


class ReferenceNtt:
    """The textbook transform for one (prime, N) pair, at the kernel's ``psi``."""

    def __init__(self, prime: int, poly_modulus_degree: int) -> None:
        self.prime = int(prime)
        self.n = int(poly_modulus_degree)
        self.psi = get_ntt_kernel((self.prime,), self.n).psi[0]
        self.psi_inv = pow(self.psi, -1, self.prime)
        self.n_inv = pow(self.n, -1, self.prime)
        self.psi_powers = _powers(self.psi, self.prime, self.n)
        self.psi_inv_powers = _powers(self.psi_inv, self.prime, self.n)
        # omega = psi^2, so the stage twiddles are strided reads of the same tables.
        self._forward_stages = self._stage_twiddles(self.psi_powers)
        self._inverse_stages = self._stage_twiddles(self.psi_inv_powers)

    def _stage_twiddles(self, powers: np.ndarray) -> Dict[int, np.ndarray]:
        stages: Dict[int, np.ndarray] = {}
        length = 2
        while length <= self.n:
            stages[length] = powers[:: 2 * self.n // length][: length // 2]
            length *= 2
        return stages

    def _transform_reference(self, values: np.ndarray, stages: Dict[int, np.ndarray]) -> np.ndarray:
        """Textbook butterfly loop with full `%` reductions (property-test oracle)."""
        q = self.prime
        data = values.astype(np.int64) % q
        data = data[bit_reverse_indices(self.n)]
        length = 2
        while length <= self.n:
            half = length // 2
            twiddles = stages[length]
            blocks = data.reshape(-1, length)
            low = blocks[:, :half].copy()
            high = (blocks[:, half:] * twiddles[np.newaxis, :]) % q
            blocks[:, :half] = (low + high) % q
            blocks[:, half:] = (low - high) % q
            data = blocks.reshape(-1)
            length *= 2
        return data

    def forward_reference(self, coeffs: np.ndarray) -> np.ndarray:
        """Forward NTT in natural slot order through the oracle path."""
        twisted = (coeffs.astype(np.int64) % self.prime) * self.psi_powers % self.prime
        return self._transform_reference(twisted, self._forward_stages)

    def inverse_reference(self, values: np.ndarray) -> np.ndarray:
        """Inverse NTT of natural-order slots through the oracle path."""
        data = self._transform_reference(values, self._inverse_stages)
        data = data * self.n_inv % self.prime
        return data * self.psi_inv_powers % self.prime
