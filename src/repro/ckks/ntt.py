"""Negacyclic Number-Theoretic Transforms over word-sized primes.

Polynomial multiplication in the ring ``Z_q[X] / (X^N + 1)`` goes through the
negacyclic NTT: evaluate both operands at the ``N`` odd powers of a primitive
``2N``-th root of unity ``psi``, multiply point-wise, interpolate back.

One kernel, :class:`NttKernel`, does every transform of the scheme.  It takes
an ``(..., K, N)`` array — all ``K`` primes of an RNS basis, under any leading
batch of polynomials or key-switching digits — and runs ``log2 N`` stages of
whole-array ``numpy`` operations:

* **Constant geometry.**  Every forward stage reads the two contiguous halves
  of its input and writes butterfly outputs interleaved (``y[2i]``,
  ``y[2i+1]``); every inverse stage does the opposite.  The perfect shuffle
  between stages replaces the bit-reversal gather, and every stage is one
  vector operation of length ``N/2`` per row.  The ``psi`` twist is merged
  into the stage twiddles, so there is no separate pre/post scaling pass.
* **Shoup multiplication.**  A twiddle ``w`` is stored with its companion
  ``w' = floor(w * 2^32 / q)``; then ``x*w - ((x*w') >> 32) * q`` lies in
  ``[0, 2q)`` and equals ``x*w mod q`` for every ``x < 2^32`` — two
  multiplies, a shift and a subtract in ``uint64``, no division.
* **Lazy range invariant.**  Values stay in ``[0, 2q)`` between stages:
  butterfly sums and differences are folded back with
  ``minimum(x, x - 2q)`` (unsigned wrap-around makes the smaller of the two
  the right one) and only the last step reduces to ``[0, q)``.  Primes are
  below ``2^31``, so ``2q < 2^32`` keeps every Shoup operand legal and every
  product ``x * w' < 2^64``; the constructor enforces that bound itself.
* **Private evaluation order.**  ``forward`` emits the evaluations in
  bit-reversed order (slot ``j`` holds the value at
  ``psi^(2*bitrev(j)+1)``) and ``inverse`` consumes that same order.  The
  order is this module's private convention: point-wise arithmetic does not
  care, :func:`galois_ntt_permutation` is expressed in it, and
  evaluation-form data — which polynomials carry between operations
  (``RnsPolynomial.form``) — is never serialized, so nothing else may assume it.

Twiddle tables are ``log2 N`` rows of ``N/2`` (``w``, ``w'``) pairs per prime
and direction, so kernels are cached process-wide by ``(primes, N)`` —
sessions with equal parameters derive equal primes and share one table — and
the kernel over any contiguous run of a basis's primes (its last prime
dropped, or only its trailing rows) is a row-slice view of its parent's
table, not a copy.

Every ``forward`` / ``inverse`` adds the rows it transforms to a thread-local
tally (:func:`ntt_rows`): kernels are process-wide and sessions run on
different worker threads, so a caller reads the tally before and after its
own work to get an exact, repeatable cost.

:class:`NttContext` is the single-prime face (one 1-D row in, one out,
through the same kernel) and carries the textbook row-at-a-time transform as
the property-test oracle.
"""

from __future__ import annotations

import threading
from typing import Dict, Sequence, Tuple

import numpy as np

from ..errors import ParameterError
from .numth import find_primitive_root, mod_inverse

#: Shoup companions are ``floor(w * 2^32 / q)``; operands must stay below 2^32.
_SHOUP_BITS = 32
#: Largest prime (exclusive) for which ``2q < 2^32`` holds.
_PRIME_BOUND = 1 << 31

_TALLY = threading.local()


def ntt_rows() -> int:
    """Length-N rows the calling thread has transformed so far, both directions."""
    return getattr(_TALLY, "rows", 0)


def _power_table(roots: np.ndarray, primes: np.ndarray, n: int) -> np.ndarray:
    """``table[k, e] = roots[k]**e mod primes[k]`` for ``e < n``, by doubling."""
    q = primes.reshape(-1, 1)
    step = roots.reshape(-1, 1) % q
    table = np.ones((len(primes), n), dtype=np.int64)
    size = 1
    while size < n:
        table[:, size : 2 * size] = table[:, :size] * step % q
        step = step * step % q
        size *= 2
    return table


class NttKernel:
    """Batched negacyclic NTT over every prime of an RNS basis.

    ``forward`` and ``inverse`` map ``(..., K, N)`` ``int64`` arrays of
    reduced residues (row ``k`` modulo ``primes[k]``) to arrays of the same
    shape; see the module docstring for the algorithm and its invariants.
    Obtain instances through :func:`get_ntt_kernel`.
    """

    def __init__(
        self,
        primes: Sequence[int],
        poly_modulus_degree: int,
        _parent: "NttKernel | None" = None,
        _start: int = 0,
    ) -> None:
        n = int(poly_modulus_degree)
        if n < 2 or n & (n - 1):
            raise ValueError("polynomial degree must be a power of two (at least 2)")
        self.primes: Tuple[int, ...] = tuple(int(p) for p in primes)
        self.n = n
        rows = len(self.primes)
        if not rows:
            raise ParameterError("an NTT kernel needs at least one prime")
        if _parent is not None:
            # Row-slice views of the parent's tables: no twiddle is copied.
            view = slice(_start, _start + rows)
            self.psi = _parent.psi[view]
            self._forward = _parent._forward[:, :, view]
            self._inverse = _parent._inverse[:, :, view]
            self._n_inv = _parent._n_inv[:, view]
            self._q = _parent._q[view]
            self._q_half = _parent._q_half[view]
            self._two_q_half = _parent._two_q_half[view]
            return
        for prime in self.primes:
            if not 2 < prime < _PRIME_BOUND:
                raise ParameterError(
                    f"prime {prime} is outside (2, 2^31): the lazy Shoup butterflies "
                    "need 2q < 2^32"
                )
        #: The primitive ``2N``-th root of unity used for each prime.
        self.psi = tuple(find_primitive_root(2 * n, p) for p in self.primes)
        q = np.array(self.primes, dtype=np.int64)
        psi = np.array(self.psi, dtype=np.int64)
        psi_inv = np.array(
            [mod_inverse(root, p) for root, p in zip(self.psi, self.primes)], dtype=np.int64
        )
        n_inv = np.array([mod_inverse(n, p) for p in self.primes], dtype=np.int64)

        # Stage s (m = 2^s blocks) multiplies pair i by psi^bitrev(m + i mod m).
        half = n // 2
        blocks = 1 << np.arange(n.bit_length() - 1, dtype=np.int64).reshape(-1, 1)
        exponents = bit_reverse_indices(n)[
            blocks + (np.arange(half, dtype=np.int64) & (blocks - 1))
        ]
        # The moduli are materialized at operand width: a stride-0 broadcast
        # column takes numpy off its contiguous fast path (about 2x per op).
        self._q = np.repeat(q.astype(np.uint64).reshape(-1, 1), n, axis=1)
        self._q_half = np.ascontiguousarray(self._q[:, :half])
        self._two_q_half = 2 * self._q_half
        self._forward = self._with_shoup(
            _power_table(psi, q, n)[:, exponents].transpose(1, 0, 2)
        )
        # Inverse stages undo the forward ones last to first.
        self._inverse = self._with_shoup(
            _power_table(psi_inv, q, n)[:, exponents[::-1]].transpose(1, 0, 2)
        )
        self._n_inv = self._with_shoup(np.repeat(n_inv.reshape(-1, 1), n, axis=1))

    def _with_shoup(self, twiddles: np.ndarray) -> np.ndarray:
        """Stack ``(..., K, M)`` twiddles with their Shoup companions on axis -3."""
        w = twiddles.astype(np.uint64)
        q = self._q[:, : w.shape[-1]]
        return np.stack([w, (w << np.uint64(_SHOUP_BITS)) // q], axis=-3)

    def rows(self, start: int, stop: int) -> "NttKernel":
        """The kernel over ``primes[start:stop]``, sharing this one's tables."""
        key = (self.primes[start:stop], self.n)
        kernel = _KERNEL_CACHE.get(key)
        if kernel is None:
            kernel = _KERNEL_CACHE[key] = NttKernel(key[0], self.n, _parent=self, _start=start)
        return kernel

    def drop_last(self) -> "NttKernel":
        """The kernel over all primes but the last, sharing this one's tables."""
        return self.rows(0, len(self.primes) - 1)

    # -- the transform ---------------------------------------------------------------
    def _words(self, values: np.ndarray) -> np.ndarray:
        values = np.ascontiguousarray(values, dtype=np.int64)
        if values.ndim < 2 or values.shape[-2:] != (len(self.primes), self.n):
            raise ParameterError(
                f"expected (..., {len(self.primes)}, {self.n}) residues, got {values.shape}"
            )
        _TALLY.rows = ntt_rows() + values.size // self.n
        return values.view(np.uint64)

    @staticmethod
    def _mul_shoup(x, twiddle, q, scratch, product, out) -> None:
        """``out = x * w mod q`` lazily in ``[0, 2q)``, for ``x < 2^32``.

        ``scratch`` and ``product`` are clobbered; ``product`` may be ``x`` or ``out``.
        """
        w, w_shoup = twiddle
        np.multiply(x, w_shoup, out=scratch)
        np.right_shift(scratch, _SHOUP_BITS, out=scratch)
        np.multiply(scratch, q, out=scratch)
        np.multiply(x, w, out=product)
        np.subtract(product, scratch, out=out)

    def _buffers(self, x: np.ndarray):
        """Per-call scratch: two full ping-pong arrays and three half-width ones."""
        half = x.shape[:-1] + (self.n // 2,)
        return (
            [np.empty_like(x), np.empty_like(x)],
            [np.empty(half, dtype=np.uint64) for _ in range(3)],
        )

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficient form to evaluation form, all rows in one pass."""
        x = self._words(coeffs)
        half = self.n // 2
        pong, (t, u, v) = self._buffers(x)
        q, two_q = self._q_half, self._two_q_half
        for stage, twiddle in enumerate(self._forward):
            y = pong[stage & 1]
            low, high = x[..., :half], x[..., half:]
            self._mul_shoup(high, twiddle, q, t, u, u)
            # low ± u lies in (-2q, 4q); unsigned wrap makes min() pick the
            # representative in [0, 2q).
            np.add(low, u, out=t)
            np.subtract(t, two_q, out=v)
            np.minimum(t, v, out=y[..., 0::2])
            np.subtract(low, u, out=t)
            np.add(t, two_q, out=v)
            np.minimum(t, v, out=y[..., 1::2])
            x = y
        return self._reduced(x, pong[stage & 1 ^ 1])

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Evaluation form back to coefficient form, all rows in one pass."""
        x = self._words(values)
        half = self.n // 2
        pong, (t, u, v) = self._buffers(x)
        q, two_q = self._q_half, self._two_q_half
        for stage, twiddle in enumerate(self._inverse):
            y = pong[stage & 1]
            even, odd = x[..., 0::2], x[..., 1::2]
            np.add(even, odd, out=t)
            np.subtract(t, two_q, out=v)
            np.minimum(t, v, out=y[..., :half])
            np.subtract(even, odd, out=t)
            np.add(t, two_q, out=v)
            np.minimum(t, v, out=u)
            self._mul_shoup(u, twiddle, q, t, u, y[..., half:])
            x = y
        idle = pong[stage & 1 ^ 1]
        self._mul_shoup(x, self._n_inv, self._q, idle, x, x)
        return self._reduced(x, idle)

    def _reduced(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Final reduction of ``x`` from ``[0, 2q)`` to ``[0, q)``, into ``out`` as ``int64``."""
        np.subtract(x, self._q, out=out)
        np.minimum(x, out, out=out)
        return out.view(np.int64)


_KERNEL_CACHE: Dict[Tuple[Tuple[int, ...], int], NttKernel] = {}


def get_ntt_kernel(primes: Sequence[int], poly_modulus_degree: int) -> NttKernel:
    """Return the process-wide :class:`NttKernel` for ``(primes, N)``."""
    key = (tuple(int(p) for p in primes), int(poly_modulus_degree))
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        kernel = _KERNEL_CACHE[key] = NttKernel(*key)
    return kernel


class NttContext:
    """One (prime, N) pair: 1-D rows through the kernel, plus the test oracle.

    ``forward``/``inverse``/``multiply`` run the production :class:`NttKernel`
    on a single row.  ``forward_reference``/``inverse_reference`` are the
    textbook transform — pre-twist by powers of ``psi``, bit-reversal gather,
    Cooley-Tukey butterflies with a full ``%`` per stage — in *natural* slot
    order (slot ``k`` holds the evaluation at ``psi^(2k+1)``); the kernel's
    output is that vector indexed by :func:`bit_reverse_indices`.
    """

    def __init__(self, prime: int, poly_modulus_degree: int) -> None:
        self.kernel = get_ntt_kernel((prime,), poly_modulus_degree)
        self.prime = int(prime)
        self.n = self.kernel.n
        self.psi = self.kernel.psi[0]
        self.psi_inv = mod_inverse(self.psi, self.prime)
        self.n_inv = mod_inverse(self.n, self.prime)
        q = np.array([self.prime], dtype=np.int64)
        self.psi_powers = _power_table(np.array([self.psi]), q, self.n)[0]
        self.psi_inv_powers = _power_table(np.array([self.psi_inv]), q, self.n)[0]
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

    # -- production path: one row through the batched kernel ---------------------------
    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Negacyclic forward NTT of a length-N vector of reduced residues."""
        return self.kernel.forward(np.asarray(coeffs)[np.newaxis])[0]

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT back to the coefficient domain."""
        return self.kernel.inverse(np.asarray(values)[np.newaxis])[0]

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic product of two coefficient vectors modulo the prime."""
        fa, fb = self.kernel.forward(np.stack([a, b])[:, np.newaxis])
        return self.kernel.inverse(fa * fb % self.prime)[0]

    # -- oracle ---------------------------------------------------------------------------
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


_BIT_REVERSE_CACHE: Dict[int, np.ndarray] = {}


def bit_reverse_indices(n: int) -> np.ndarray:
    """``bitrev(i)`` over ``log2 n`` bits for ``i < n``: kernel slot -> natural slot."""
    cached = _BIT_REVERSE_CACHE.get(n)
    if cached is not None:
        return cached
    bits = n.bit_length() - 1
    indices = np.arange(n, dtype=np.int64)
    reversed_indices = np.zeros(n, dtype=np.int64)
    for bit in range(bits):
        reversed_indices |= ((indices >> bit) & 1) << (bits - 1 - bit)
    _BIT_REVERSE_CACHE[n] = reversed_indices
    return reversed_indices


_GALOIS_NTT_PERM_CACHE: Dict[Tuple[int, int], np.ndarray] = {}


def galois_ntt_permutation(n: int, galois_element: int) -> np.ndarray:
    """Index permutation realizing ``X -> X^g`` on evaluation-form values.

    In natural order slot ``k`` holds the evaluation at ``psi^(2k+1)``, so the
    automorphism maps it to the slot holding ``psi^((2k+1)g mod 2n)``; the
    exponent stays odd because ``g`` is odd, giving
    ``natural[k] = ((2k+1)g mod 2n - 1) / 2``.  The kernel keeps slots in
    bit-reversed order, so the permutation returned is that map conjugated by
    the bit reversal.  ``forward(p)[..., perm]`` is bit-exact with
    ``forward(automorphism(p, g))`` — no sign flips, no extra transforms.
    """
    g = int(galois_element) % (2 * n)
    key = (int(n), g)
    cached = _GALOIS_NTT_PERM_CACHE.get(key)
    if cached is None:
        reverse = bit_reverse_indices(n)
        odd = (2 * reverse + 1) * g % (2 * n)
        cached = reverse[(odd - 1) // 2]
        _GALOIS_NTT_PERM_CACHE[key] = cached
    return cached


_NTT_CACHE: Dict[Tuple[int, int], NttContext] = {}


def get_ntt_context(prime: int, poly_modulus_degree: int) -> NttContext:
    """Return a cached :class:`NttContext` for the (prime, N) pair."""
    key = (int(prime), int(poly_modulus_degree))
    context = _NTT_CACHE.get(key)
    if context is None:
        context = NttContext(prime, poly_modulus_degree)
        _NTT_CACHE[key] = context
    return context
