"""Negacyclic Number-Theoretic Transforms over word-sized primes.

Polynomial multiplication in the ring ``Z_q[X] / (X^N + 1)`` goes through the
negacyclic NTT: evaluate both operands at the ``N`` odd powers of a primitive
``2N``-th root of unity ``psi``, multiply point-wise, interpolate back.

One kernel, :class:`NttKernel`, does every transform of the scheme.  It takes
an ``(..., K, N)`` array — all ``K`` primes of an RNS basis, under any leading
batch of polynomials or key-switching digits — and runs ``log2 N`` stages
(where they run: last section):

* **Constant geometry.**  Every forward stage reads the two contiguous halves
  of its input and writes butterfly outputs interleaved (``y[2i]``,
  ``y[2i+1]``); every inverse stage does the opposite.  The perfect shuffle
  between stages replaces the bit-reversal gather, and every stage is one
  pass of ``N/2`` butterflies per row.  The ``psi`` twist is merged
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
no table is built twice: the kernel over any contiguous run of a basis's
primes is a row-slice view of its parent's table, and one over several runs
(a later level's key basis: its data rows and the special rows) is a
:meth:`NttKernel.join` of views that transforms each run on its own view.

Every ``forward`` / ``inverse`` adds the rows it transforms to a thread-local
tally (:func:`ntt_rows`): kernels are process-wide and sessions run on
different worker threads, so a caller reads the tally before and after its
own work to get an exact, repeatable cost.

:class:`NttContext` is the single-prime face (one 1-D row in, one out,
through the same kernel).

**Where the stages run.**  ``ntt.c``, beside this file, is the stage loop
transcribed to C, one row at a time: the same butterflies in the same
``uint64`` arithmetic, on the tables this module builds (a view passes its
parent's pointer and strides), so its output is bit-identical.  The same file
holds the pointwise halves of a division by trailing primes
(:class:`repro.ckks.rns.RescaleConstants`).  On the first transform of a
process it is compiled once per user, source and host ISA with the system
compiler for the host CPU (``cc -O3 -shared -fPIC -march=native``) into
``<tempdir>/repro-<uid>``, named by the SHA-256 of the source, the command
and the compiler's predefined macros under ``-march=native`` (which name the
host's instruction set, so a library is loaded only where it was built for),
moved into place with ``os.replace``, then loaded with :mod:`ctypes`, which
releases the GIL for each call.  Loading a cached library touches its mtime;
a build removes the libraries untouched for seven days.  A compiler that
cannot build for the host (the macro probe or the compile fails) gets the
portable build, without ``-march=native`` and named by source and command,
with one warning.  The
cache directory must be a directory owned by this user and writable by no
one else; a directory that fails that check, a missing compiler or a failed
portable compile or load logs one warning and leaves every transform to the
whole-array ``numpy`` stages (``_numpy_forward`` / ``_numpy_inverse``), which
answer with the same bits and are the oracle the C loop is tested against.
:func:`stages_in_c` says which one runs and :func:`build_command` which build
loaded.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import logging
import os
import stat
import subprocess
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Sequence, Tuple

import numpy as np

from ..errors import ParameterError
from .numth import find_primitive_root, mod_inverse

#: Shoup companions are ``floor(w * 2^32 / q)``; operands must stay below 2^32.
_SHOUP_BITS = 32
#: Largest prime (exclusive) for which ``2q < 2^32`` holds.
_PRIME_BOUND = 1 << 31

_TALLY = threading.local()

_LOG = logging.getLogger(__name__)
_SOURCE = Path(__file__).with_name("ntt.c")
#: The portable build, which any CPU of the compiler's target runs.
_COMPILE = ("cc", "-O3", "-shared", "-fPIC")
#: The build for the host CPU: the portable command with this flag added.
_HOST_FLAG = "-march=native"
#: A cached library neither built nor loaded for this long is removed after a build.
_STALE_SECONDS = 7 * 24 * 3600
_NATIVE: Dict[str, object] = {}
_NATIVE_LOCK = threading.Lock()


def _host_probe() -> bytes:
    """The compiler's predefined macros under ``-march=native``: the host's ISA, as text."""
    return subprocess.run(
        [_COMPILE[0], _HOST_FLAG, "-E", "-dM", "-x", "c", os.devnull],
        check=True, capture_output=True, timeout=60,
    ).stdout


def _cache_directory() -> Path:
    """``<tempdir>/repro-<uid>``, created 0700; refused unless only this user can write it."""
    cache = Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"
    cache.mkdir(mode=0o700, exist_ok=True)
    status = cache.lstat()
    if (
        not stat.S_ISDIR(status.st_mode)
        or status.st_uid != os.getuid()
        or status.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        raise PermissionError(f"{cache} is not a directory that only this user can write")
    return cache


def _library(cache: Path, source: bytes, command: Tuple[str, ...], probe: bytes = b"") -> Path:
    """The library ``command`` builds from ``source`` (for the ISA ``probe`` names), compiled
    into ``cache`` unless it is there: named by the SHA-256 of all three."""
    digest = hashlib.sha256(source + " ".join(command).encode() + probe).hexdigest()
    library = cache / f"ntt-{digest}.so"
    try:
        os.utime(library)  # a hit marks the library used, so no build prunes it
    except FileNotFoundError:
        # A private name per thread, then an atomic rename: processes that
        # compile at the same moment each replace the library whole.
        partial = cache / f".{library.name}.{os.getpid()}.{threading.get_ident()}"
        try:
            subprocess.run(
                [*command, "-o", str(partial), str(_SOURCE)],
                check=True, capture_output=True, timeout=120,
            )
            os.replace(partial, library)
        finally:
            partial.unlink(missing_ok=True)
        # By age, not by name: a checkout of another source in use on this host
        # keeps touching its own library.  A process mapping a removed one keeps it.
        cutoff = time.time() - _STALE_SECONDS
        for other in cache.glob("ntt-*.so"):
            with contextlib.suppress(OSError):  # another process pruned it first
                if other.stat().st_mtime < cutoff:
                    other.unlink()
    return library


def _load_native() -> "Tuple[ctypes.CDLL, Tuple[str, ...]] | None":
    """Build (once per user, source and ISA) and load ``ntt.c``, for the host CPU if the
    compiler can, else portably; ``None`` if neither loads.  One warning either way."""
    host = (*_COMPILE, _HOST_FLAG)
    try:
        source = _SOURCE.read_bytes()
        cache = _cache_directory()
        try:
            command, loaded = host, ctypes.CDLL(str(_library(cache, source, host, _host_probe())))
        except (OSError, subprocess.SubprocessError) as exc:
            portable = _library(cache, source, _COMPILE)
            command, loaded = _COMPILE, ctypes.CDLL(str(portable))
            _LOG.warning("the C kernels are built for any CPU, not this one (%s)", exc)
    except (OSError, subprocess.SubprocessError) as exc:
        _LOG.warning("NTT stages run in numpy: the C stage loop did not load (%s)", exc)
        return None
    index, pointer = ctypes.c_ssize_t, ctypes.c_void_p
    rows = [pointer, pointer] + [index] * 4 + [pointer] + [index] * 3 + [pointer, index]
    loaded.repro_ntt_forward.argtypes = rows
    loaded.repro_ntt_inverse.argtypes = rows + [pointer, index, index]
    loaded.repro_rescale.argtypes = [pointer] * 3 + [index] * 3 + [pointer] * 5
    for entry in (loaded.repro_ntt_forward, loaded.repro_ntt_inverse, loaded.repro_rescale):
        entry.restype = ctypes.c_int
    return loaded, command


def native_library() -> "ctypes.CDLL | None":
    """The C kernels, loaded on first use; ``None`` when numpy does their work."""
    if "library" not in _NATIVE:
        with _NATIVE_LOCK:
            if "library" not in _NATIVE:
                library, _NATIVE["command"] = _load_native() or (None, None)
                _NATIVE["library"] = library
    return _NATIVE["library"]


def stages_in_c() -> bool:
    """Whether transforms run the C stage loop (loading it if no transform has yet)."""
    return native_library() is not None


def build_command() -> "Tuple[str, ...] | None":
    """The compile command of the loaded C kernels (``-march=native`` in it: built for
    this host's ISA); ``None`` when numpy does their work."""
    native_library()
    return _NATIVE["command"]


def _strided(array: np.ndarray) -> tuple:
    """``array``'s data pointer and its strides in words, all but the last (which is 1)."""
    return (array.ctypes.data, *(step // array.itemsize for step in array.strides[:-1]))


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
    Obtain instances through :func:`get_ntt_kernel`, :meth:`rows` and :meth:`join`.
    """

    def __init__(
        self,
        primes: Sequence[int],
        poly_modulus_degree: int,
        _parent: "NttKernel | None" = None,
        _start: int = 0,
        _runs: "Tuple[NttKernel, ...]" = (),
    ) -> None:
        n = int(poly_modulus_degree)
        if n < 2 or n & (n - 1):
            raise ValueError("polynomial degree must be a power of two (at least 2)")
        self.primes: Tuple[int, ...] = tuple(int(p) for p in primes)
        self.n = n
        rows = len(self.primes)
        if not rows:
            raise ParameterError("an NTT kernel needs at least one prime")
        #: A join's parts in row order (it holds no table); empty otherwise.
        self._runs = _runs
        if _runs:
            self.psi = sum((run.psi for run in _runs), ())
            return
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

    @property
    def runs(self) -> "Tuple[NttKernel, ...]":
        """The kernels whose tables this one transforms on: itself, or a join's parts."""
        return self._runs or (self,)

    def join(self, other: "NttKernel") -> "NttKernel":
        """The cached kernel over ``primes + other.primes``, on both kernels' tables:
        its transforms and row tally are a standalone kernel's over those primes."""
        key = (self.primes + other.primes, self.n)
        kernel = _KERNEL_CACHE.get(key)
        if kernel is None:
            kernel = _KERNEL_CACHE[key] = NttKernel(key[0], self.n, _runs=self.runs + other.runs)
        return kernel

    def rows(self, start: int, stop: int) -> "NttKernel":
        """The kernel over ``primes[start:stop]``, sharing this one's tables (a
        join's: a view of each run the rows cross, joined)."""
        key = (self.primes[start:stop], self.n)
        kernel = _KERNEL_CACHE.get(key)
        if kernel is None and self._runs:
            parts, offset = [], 0
            for run in self._runs:
                low, high = max(start - offset, 0), min(stop - offset, len(run.primes))
                parts += [run.rows(low, high)] if low < high else []
                offset += len(run.primes)
            kernel = functools.reduce(NttKernel.join, parts)
        elif kernel is None:
            kernel = _KERNEL_CACHE[key] = NttKernel(key[0], self.n, _parent=self, _start=start)
        return kernel

    def drop_last(self) -> "NttKernel":
        """The kernel over all primes but the last, sharing this one's tables."""
        return self.rows(0, len(self.primes) - 1)

    # -- the transform ---------------------------------------------------------------
    def _words(self, values: np.ndarray) -> np.ndarray:
        """``values`` checked, as contiguous ``uint64`` words; their rows tallied."""
        values = np.ascontiguousarray(values, dtype=np.int64)
        if values.ndim < 2 or values.shape[-2:] != (len(self.primes), self.n):
            raise ParameterError(
                f"expected (..., {len(self.primes)}, {self.n}) residues, got {values.shape}"
            )
        _TALLY.rows = ntt_rows() + values.size // self.n
        return values.view(np.uint64)

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficient form to evaluation form, all rows in one pass (a join: one per run)."""
        return self._stages(self._words(coeffs), inverse=False)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Evaluation form back to coefficient form, all rows in one pass (a join: one per run)."""
        return self._stages(self._words(values), inverse=True)

    def _stages(self, x: np.ndarray, inverse: bool) -> np.ndarray:
        """The stage loop over checked ``uint64`` words: the C one if it loaded, else numpy's."""
        library = native_library()
        if library is None:
            return self._numpy_stages(x, inverse)
        out = np.empty_like(x)
        block = len(self.primes) * self.n
        entry = library.repro_ntt_inverse if inverse else library.repro_ntt_forward
        offset = 0
        for run in self.runs:
            # A row view's tables are its parent's: a pointer into them, the
            # parent's strides.  Every array pointed into is held by `run` or here.
            tables = _strided(run._inverse if inverse else run._forward)
            scale = _strided(run._n_inv) if inverse else ()
            status = entry(
                x.ctypes.data + offset, out.ctypes.data + offset, x.size // block, block,
                len(run.primes), self.n, *tables, *_strided(run._q), *scale,
            )
            if status:
                raise MemoryError("the C NTT stage loop could not allocate its scratch row")
            offset += len(run.primes) * self.n * x.itemsize
        return out.view(np.int64)

    def _numpy_stages(self, x: np.ndarray, inverse: bool) -> np.ndarray:
        """The numpy stage loop: the fallback, and the oracle the C loop is pinned to.
        A join sends each run's rows through that run."""
        if not self._runs:
            return self._numpy_inverse(x) if inverse else self._numpy_forward(x)
        ends = np.cumsum([len(run.primes) for run in self._runs])
        parts = np.split(x, ends[:-1], axis=-2)
        return np.concatenate(
            [run._numpy_stages(part, inverse) for run, part in zip(self._runs, parts)], axis=-2
        )

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

    def _numpy_forward(self, x: np.ndarray) -> np.ndarray:
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

    def _numpy_inverse(self, x: np.ndarray) -> np.ndarray:
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
    """One (prime, N) pair: 1-D rows through the batched :class:`NttKernel`.

    The textbook row-at-a-time transform the kernel is pinned against lives
    in the test oracles (``tests/oracles/ntt.py``), not here.
    """

    def __init__(self, prime: int, poly_modulus_degree: int) -> None:
        self.kernel = get_ntt_kernel((prime,), poly_modulus_degree)
        self.prime = int(prime)
        self.n = self.kernel.n

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
