"""Property tests pinning every optimized CKKS kernel to its retained oracle.

The hot paths of the scheme — the NTT, the rescale and CRT-composition
kernels, and the whole key-switching pipeline — run optimized variants; the
original implementations are kept as reference oracles precisely so the
optimized paths can be pinned against them over randomized inputs:

* the batched ``NttKernel`` vs the textbook transform in ``oracles.ntt`` —
  bit-for-bit, under the kernel's documented slot
  order (``kernel[j] == reference[bit_reverse(j)]``);
* ``RnsPolynomial.divide_and_round_last`` / ``oracles.rns.to_int_coefficients`` /
  ``to_float_coefficients`` vs the row-at-a-time versions in ``oracles.rns``;
* ``galois_ntt_permutation`` vs the coefficient-domain automorphism, as an
  order-free property of the production kernel;
* the transform-once rewrites of ``Evaluator.multiply`` / ``multiply_plain``
  and ``Encryptor.encrypt`` / ``Decryptor.decrypt_poly`` vs the same formulas
  built pairwise from ``RnsPolynomial.multiply``;
* ``Evaluator`` vs ``oracles.keyswitch.ReferenceEvaluator``, the
  coefficient-domain key switch that left ``src/`` —
  **bit-exact** for relinearization, **noise-level** for hoisted rotations
  (digit lifting does not commute with the automorphism's sign flips, so
  the two valid decompositions differ only under the noise floor).
"""

import contextlib
import hashlib
import json
import logging
import os
import pathlib
import shutil
import stat
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from oracles.keyswitch import ReferenceEvaluator
from oracles.ntt import ReferenceNtt
from oracles.seeded import in_words, write_out_seeds, written_out
from oracles.rns import (
    basis_modulus,
    divide_and_round_last_reference,
    divide_and_round_sequential,
    from_int_coefficients,
    restrict,
    to_int_coefficients,
    to_int_coefficients_reference,
)

from repro.backend import CkksBackend
from repro.ckks import ntt
from repro.ckks import (
    CkksContext,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
)
from repro.ckks.ntt import (
    NttKernel,
    bit_reverse_indices,
    galois_ntt_permutation,
    get_ntt_context,
    get_ntt_kernel,
)
from repro.ckks.numth import generate_ntt_primes, is_prime
from repro.ckks.rns import RnsBasis, RnsPolynomial
from repro.ckks.sampling import ENCRYPTION_SECRETS, RlweSampler
from repro.core.analysis.parameters import EncryptionParameters
from repro.errors import ParameterError, SerializationError

DRAWS = 5


def random_residues(rng, basis):
    return RnsPolynomial(
        basis,
        rng.integers(
            0,
            np.array(basis.primes).reshape(-1, 1),
            size=(len(basis), basis.poly_modulus_degree),
            dtype=np.int64,
        ),
    )


def schoolbook_negacyclic(a, b, prime):
    n = len(a)
    want = np.zeros(n, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            index = (i + j) % n
            sign = -1 if i + j >= n else 1
            want[index] = (want[index] + sign * int(a[i]) * int(b[j])) % prime
    return want % prime


def largest_ntt_prime_below(bound, n):
    """The largest prime ``p < bound`` with ``p = 1 (mod 2n)``."""
    candidate = bound - 1 - (bound - 2) % (2 * n)
    while not is_prime(candidate):
        candidate -= 2 * n
    return candidate


class TestNttAgainstReference:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_the_oracle_evaluates_at_the_odd_powers_of_psi(self, n):
        """The oracle rebuilds its tables from ``psi`` alone; pin it to the
        definition: slot ``k`` is the polynomial at ``psi^(2k+1)``."""
        prime = generate_ntt_primes([20], n)[0]
        reference = ReferenceNtt(prime, n)
        psi = reference.psi
        assert pow(psi, n, prime) == prime - 1  # a primitive 2N-th root
        coeffs = np.random.default_rng(n).integers(0, prime, size=n, dtype=np.int64)
        direct = [
            sum(int(c) * pow(psi, (2 * k + 1) * j, prime) for j, c in enumerate(coeffs)) % prime
            for k in range(n)
        ]
        natural = reference.forward_reference(coeffs)
        assert natural.tolist() == direct
        assert np.array_equal(reference.inverse_reference(natural), coeffs)

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("bits", [20, 28])
    def test_forward_and_inverse_match_reference(self, n, bits):
        prime = generate_ntt_primes([bits], n)[0]
        ntt, reference = get_ntt_context(prime, n), ReferenceNtt(prime, n)
        order = bit_reverse_indices(n)
        rng = np.random.default_rng(n * bits)
        for draw in range(DRAWS):
            coeffs = rng.integers(0, prime, size=n, dtype=np.int64)
            natural = reference.forward_reference(coeffs)
            forward = ntt.forward(coeffs)
            assert np.array_equal(forward, natural[order])
            assert np.array_equal(ntt.inverse(forward), reference.inverse_reference(natural))
            assert np.array_equal(ntt.inverse(forward), coeffs % prime)

    def test_edge_vectors(self):
        n = 128
        prime = generate_ntt_primes([25], n)[0]
        ntt, reference = get_ntt_context(prime, n), ReferenceNtt(prime, n)
        order = bit_reverse_indices(n)
        for coeffs in (
            np.zeros(n, dtype=np.int64),
            np.full(n, prime - 1, dtype=np.int64),
            np.eye(1, n, 0, dtype=np.int64)[0],  # X^0
            np.eye(1, n, n - 1, dtype=np.int64)[0],  # X^(N-1)
        ):
            assert np.array_equal(ntt.forward(coeffs), reference.forward_reference(coeffs)[order])
            assert np.array_equal(ntt.inverse(ntt.forward(coeffs)), coeffs % prime)

    def test_negacyclic_multiply_matches_schoolbook(self):
        n = 64
        prime = generate_ntt_primes([25], n)[0]
        ntt = get_ntt_context(prime, n)
        rng = np.random.default_rng(7)
        a = rng.integers(0, prime, size=n, dtype=np.int64)
        b = rng.integers(0, prime, size=n, dtype=np.int64)
        assert np.array_equal(ntt.multiply(a, b), schoolbook_negacyclic(a, b, prime))


def kernel_primes(n, count):
    """``count`` primes mixing 20/25/30-bit sizes with the extremes of the range.

    The first is the largest NTT prime below 2^31 (the tightest case for the
    lazy ``[0, 2q)`` invariant, ``2q`` just under 2^32); the second the largest
    prime ``generate_ntt_primes`` returns for 30-bit requests.
    """
    extremes = [largest_ntt_prime_below(1 << 31, n), max(generate_ntt_primes([30] * 6, n))]
    sized = [p for p in generate_ntt_primes([20, 25, 30], n) if p not in extremes]
    return (extremes + sized)[:count]


def kernel_inputs(rng, primes, n, batch):
    """Random residues with the boundary rows 0, q-1 and alternating 0 / q-1 mixed in."""
    column = np.array(primes, dtype=np.int64).reshape(-1, 1)
    values = rng.integers(0, column, size=batch + (len(primes), n), dtype=np.int64)
    flat = values.reshape(-1, len(primes), n)
    flat[0, 0] = 0
    flat[-1, -1] = column[-1] - 1
    if len(flat) > 1:
        flat[1] = column - 1
        flat[-1, 0, ::2] = 0
        flat[-1, 0, 1::2] = column[0] - 1
    return values


class TestBatchedKernelAgainstReference:
    @pytest.mark.parametrize("batch", [(), (3,), (2, 2)], ids=["nobatch", "batch3", "batch2x2"])
    @pytest.mark.parametrize("count", [1, 2, 5])
    @pytest.mark.parametrize("n", [8, 64, 1024, 4096, 8192])
    def test_forward_inverse_bit_equal_under_reordering(self, n, count, batch):
        primes = kernel_primes(n, count)
        kernel = get_ntt_kernel(primes, n)
        order = bit_reverse_indices(n)
        rng = np.random.default_rng(n + count)
        coeffs = kernel_inputs(rng, primes, n, batch)
        before = coeffs.copy()
        forward = kernel.forward(coeffs)
        assert forward.shape == coeffs.shape and forward.dtype == np.int64
        assert np.array_equal(coeffs, before), "forward must not clobber its input"
        flat_in = coeffs.reshape(-1, count, n)
        flat_out = forward.reshape(-1, count, n)
        for item in range(len(flat_in)):
            for k, prime in enumerate(primes):
                oracle = ReferenceNtt(prime, n)
                natural = oracle.forward_reference(flat_in[item, k])
                assert np.array_equal(flat_out[item, k], natural[order])
                assert np.array_equal(oracle.inverse_reference(natural), flat_in[item, k])
        kept = forward.copy()
        assert np.array_equal(kernel.inverse(forward), coeffs)
        assert np.array_equal(forward, kept), "inverse must not clobber its input"

    @pytest.mark.parametrize("n", [8, 1024])
    def test_single_row_goes_through_the_same_kernel(self, n):
        primes = kernel_primes(n, 5)
        rng = np.random.default_rng(n)
        coeffs = kernel_inputs(rng, primes, n, (2,))
        forward = get_ntt_kernel(primes, n).forward(coeffs)
        for k, prime in enumerate(primes):
            row = get_ntt_context(prime, n)
            assert isinstance(row.kernel, NttKernel)
            assert np.array_equal(row.forward(coeffs[1, k]), forward[1, k])
            assert np.array_equal(row.inverse(forward[1, k]), coeffs[1, k])

    @pytest.mark.parametrize("n", [8, 64])
    def test_negacyclic_product_matches_schoolbook(self, n):
        primes = kernel_primes(n, 5)
        basis = RnsBasis(primes, n)
        rng = np.random.default_rng(n)
        a, b = random_residues(rng, basis), random_residues(rng, basis)
        a.residues[0] = primes[0] - 1
        b.residues[0] = primes[0] - 1
        product = a.multiply(b)
        for k, prime in enumerate(primes):
            assert np.array_equal(
                product.residues[k], schoolbook_negacyclic(a.residues[k], b.residues[k], prime)
            )

    def test_primes_at_or_above_2_31_are_rejected(self):
        n = 64
        in_range = largest_ntt_prime_below(1 << 31, n)
        assert NttKernel([in_range], n).primes == (in_range,)
        too_big = largest_ntt_prime_below(1 << 32, n)
        assert too_big > 1 << 31
        with pytest.raises(ParameterError):
            NttKernel([generate_ntt_primes([25], n)[0], too_big], n)
        with pytest.raises(ParameterError):
            NttKernel([], n)
        with pytest.raises(ParameterError):
            get_ntt_kernel(generate_ntt_primes([25, 25], n), n).forward(np.zeros((3, n), np.int64))

    def test_tables_are_shared_process_wide_and_sliced_not_copied(self):
        n = 256
        bits = [25, 25, 25, 30]
        first = CkksContext(n, bits, enforce_security=False)
        second = CkksContext(n, bits, enforce_security=False)
        master = first.key_basis(0).kernel
        assert second.key_basis(0).kernel is master, "equal parameters must share one table"
        for level in range(first.max_level):
            level_kernel = first.data_basis(level).kernel
            assert second.data_basis(level).kernel is level_kernel
            assert np.shares_memory(level_kernel._forward, master._forward)
            assert np.shares_memory(level_kernel._inverse, master._inverse)
        dropped = first.key_basis(0).drop_last()
        assert dropped.kernel is first.data_basis(0).kernel
        rng = np.random.default_rng(0)
        poly = random_residues(rng, first.key_basis(0))
        assert np.array_equal(
            dropped.kernel.forward(poly.residues[:-1]), master.forward(poly.residues)[:-1]
        )


@pytest.fixture
def fresh_library(tmp_path, monkeypatch):
    """An empty per-user cache under ``tmp_path`` and no C stage loop loaded yet."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(ntt, "_NATIVE", {})
    return tmp_path / f"repro-{os.getuid()}"


def numpy_and_c(kernel, values, inverse):
    """One transform through the numpy stages and through the C stage loop."""
    words = np.ascontiguousarray(values).view(np.uint64)
    numpy_out = kernel._numpy_stages(words, inverse)
    return numpy_out, kernel.inverse(values) if inverse else kernel.forward(values)


class TestCStageLoop:
    """``ntt.c`` is the numpy stage loop transcribed: equal bits on every input
    the kernel takes, on its own tables, views and joins; the numpy stages stay
    pinned to the textbook oracle; and every way the C loop can fail to load
    leaves the numpy stages answering."""

    @pytest.fixture(autouse=True)
    def own_kernels(self, monkeypatch):
        # Tables up to N = 32768 are built here; let them go with the test.
        monkeypatch.setattr(ntt, "_KERNEL_CACHE", {})

    def test_the_c_loop_loads_where_a_compiler_exists(self):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on this host: the numpy stages run")
        assert ntt.stages_in_c()

    @pytest.mark.parametrize("log_n", range(1, 16))
    def test_bit_identical_to_the_numpy_stages_at_every_degree(self, log_n):
        if not ntt.stages_in_c():
            pytest.skip("no C stage loop on this host")
        n = 1 << log_n
        primes = [largest_ntt_prime_below(1 << bits, n) for bits in (17, 24, 31)]
        kernel = NttKernel(primes, n)
        rng = np.random.default_rng(log_n)
        for values in (
            kernel_inputs(rng, primes, n, (2,)),
            np.zeros((len(primes), n), np.int64),
            np.array(primes, np.int64).reshape(-1, 1) - np.ones((2, 1, n), np.int64),
        ):
            for inverse in (False, True):
                numpy_out, c_out = numpy_and_c(kernel, values, inverse)
                assert c_out.dtype == np.int64 and np.array_equal(c_out, numpy_out)
            assert np.array_equal(kernel.inverse(kernel.forward(values)), values)

    def test_bit_identical_for_every_prime_width(self):
        if not ntt.stages_in_c():
            pytest.skip("no C stage loop on this host")
        n = 1024
        primes = [largest_ntt_prime_below(1 << bits, n) for bits in range(17, 32)]
        assert primes[-1] > 2**30 and primes[0] < 2**17
        kernel = NttKernel(primes, n)
        values = kernel_inputs(np.random.default_rng(3), primes, n, (3,))
        for inverse in (False, True):
            numpy_out, c_out = numpy_and_c(kernel, values, inverse)
            assert np.array_equal(c_out, numpy_out)

    @pytest.mark.parametrize("n", [64, 4096])
    def test_bit_identical_on_views_and_joins(self, n):
        if not ntt.stages_in_c():
            pytest.skip("no C stage loop on this host")
        primes = kernel_primes(n, 5)
        top = get_ntt_kernel(primes, n)
        joined = top.rows(0, 2).join(top.rows(3, 5))
        rng = np.random.default_rng(n)
        for kernel in (top, top.rows(1, 4), top.drop_last(), joined, joined.rows(1, 3)):
            for batch in ((), (3,), (2, 2)):
                values = kernel_inputs(rng, kernel.primes, n, batch)
                for inverse in (False, True):
                    numpy_out, c_out = numpy_and_c(kernel, values, inverse)
                    assert np.array_equal(c_out, numpy_out)
                    assert np.array_equal(
                        c_out, numpy_and_c(NttKernel(kernel.primes, n), values, inverse)[0]
                    )

    @pytest.mark.parametrize("n", [2, 64, 2048])
    def test_the_numpy_stages_match_the_oracle(self, n):
        primes = kernel_primes(n, 3)
        kernel = NttKernel(primes, n)
        order = bit_reverse_indices(n)
        coeffs = kernel_inputs(np.random.default_rng(n), primes, n, (2,))
        forward = kernel._numpy_stages(coeffs.view(np.uint64), False)
        for item in range(2):
            for k, prime in enumerate(primes):
                oracle = ReferenceNtt(prime, n)
                natural = oracle.forward_reference(coeffs[item, k])
                assert np.array_equal(forward[item, k], natural[order])
        assert np.array_equal(kernel._numpy_stages(forward.view(np.uint64), True), coeffs)

    def test_a_failed_load_logs_once_and_the_numpy_stages_answer(
        self, fresh_library, monkeypatch, caplog
    ):
        primes = kernel_primes(256, 3)
        kernel = NttKernel(primes, 256)
        values = kernel_inputs(np.random.default_rng(1), primes, 256, (2,))
        want = kernel._numpy_stages(values.view(np.uint64), False)
        monkeypatch.setattr(ntt, "_COMPILE", ("/nonexistent/cc",) + ntt._COMPILE[1:])
        with caplog.at_level(logging.WARNING, logger=ntt.__name__):
            assert np.array_equal(kernel.forward(values), want)
            assert np.array_equal(kernel.inverse(want), values)
        assert not ntt.stages_in_c()
        (record,) = [r for r in caplog.records if r.name == ntt.__name__]
        assert "did not load" in record.getMessage()

    @pytest.mark.parametrize("mode", [0o770, 0o702, 0o720])
    def test_a_writable_cache_directory_is_refused(self, fresh_library, mode, caplog):
        fresh_library.mkdir(mode=0o700)
        fresh_library.chmod(mode)
        with caplog.at_level(logging.WARNING, logger=ntt.__name__):
            assert not ntt.stages_in_c()
        assert "only this user can write" in caplog.text
        assert list(fresh_library.iterdir()) == []

    def test_a_cache_directory_of_another_user_is_refused(self, fresh_library, monkeypatch):
        owner = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: owner + 1)
        stranger = fresh_library.with_name(f"repro-{owner + 1}")
        stranger.mkdir(mode=0o700)
        assert not ntt.stages_in_c()
        assert list(stranger.iterdir()) == []

    def test_a_symlinked_cache_directory_is_refused(self, fresh_library, tmp_path):
        (tmp_path / "elsewhere").mkdir(mode=0o700)
        fresh_library.symlink_to(tmp_path / "elsewhere")
        assert not ntt.stages_in_c()

    def test_a_private_cache_directory_is_compiled_into_once(self, fresh_library):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on this host")
        assert ntt.stages_in_c()
        (library,) = fresh_library.iterdir()
        assert library.name.startswith("ntt-") and library.suffix == ".so"
        assert stat.S_IMODE(fresh_library.stat().st_mode) == 0o700

    def test_two_processes_compiling_at_once_both_load(self, fresh_library, tmp_path):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on this host")
        go = tmp_path / "go"
        script = (
            "import os, time\n"
            "from repro.ckks import ntt\n"
            f"while not os.path.exists({str(go)!r}): time.sleep(0.001)\n"
            "print(ntt.stages_in_c())\n"
        )
        src = str(pathlib.Path(ntt.__file__).parents[2])
        env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=src)
        children = [
            subprocess.Popen(
                [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True
            )
            for _ in range(2)
        ]
        try:
            time.sleep(0.5)
            go.touch()
            outputs = [child.communicate(timeout=120)[0].strip() for child in children]
        finally:
            for child in children:
                child.kill()
        assert outputs == ["True", "True"]
        assert [path.suffix for path in fresh_library.iterdir()] == [".so"]


@contextlib.contextmanager
def numpy_only(monkeypatch):
    """No C kernel loaded inside: numpy does every transform and rescale."""
    with monkeypatch.context() as patch:
        patch.setattr(ntt, "_NATIVE", {"library": None, "command": None})
        yield


def rescale_operands(rng, basis):
    """Random residues, then all-zero and all-``q-1`` ones, each with its
    rounding boundaries (``q//2``, ``q//2 + 1``) in the first columns."""
    column = basis.primes_column
    shape = (len(basis), basis.poly_modulus_degree)
    for residues in (
        rng.integers(0, column, size=shape),
        np.zeros(shape, np.int64),
        np.broadcast_to(column - 1, shape).copy(),
    ):
        edges = np.concatenate([column // 2, column // 2 + 1], 1)
        width = min(edges.shape[1], shape[1] // 2)
        residues[:, :width] = edges[:, :width]
        yield RnsPolynomial(basis, residues.astype(np.int64))


class TestCRescale:
    """``ntt.c``'s ``repro_rescale`` is ``RescaleConstants``' numpy halves in
    C: equal bits for every count, both forms, every degree, mixed prime widths
    and the key bases a key switch divides."""

    @pytest.fixture(autouse=True)
    def c_kernels(self, monkeypatch):
        monkeypatch.setattr(ntt, "_KERNEL_CACHE", {})
        if not ntt.stages_in_c():
            pytest.skip("no C kernels on this host")
        self.monkeypatch = monkeypatch

    def assert_c_is_numpy(self, basis, rng, counts=None):
        for poly in rescale_operands(rng, basis):
            for count in counts or range(1, len(basis)):
                constants = basis.rescale_constants(count)
                kept, dropped = poly.residues[:-count], poly.residues[-count:]
                assert np.array_equal(
                    constants.divide(dropped=dropped), constants._numpy_correction(dropped)
                )
                # An evaluation-form correction is any reduced row, not only a small one.
                correction = rng.integers(0, constants.primes, size=kept.shape)
                numpy_finish = constants._numpy_finish(kept, correction)
                got = constants.divide(kept, correction=correction)
                assert np.array_equal(got, numpy_finish)
                for operand in (poly, poly.to_eval()):
                    c_out = operand.divide_and_round_last(count)
                    with numpy_only(self.monkeypatch):
                        numpy_out = operand.divide_and_round_last(count)
                    assert c_out.form == numpy_out.form == operand.form
                    assert c_out.basis == numpy_out.basis == basis.drop_last(count)
                    assert c_out.residues.dtype == np.int64
                    assert np.array_equal(c_out.residues, numpy_out.residues)

    @pytest.mark.parametrize("log_n", range(3, 15))
    def test_every_count_at_every_degree(self, log_n):
        n = 1 << log_n
        primes = [largest_ntt_prime_below(1 << bits, n) for bits in (20, 25, 28, 30, 31)]
        self.assert_c_is_numpy(RnsBasis(primes, n), np.random.default_rng(log_n))

    def test_every_prime_width(self):
        n = 256
        primes = [largest_ntt_prime_below(1 << bits, n) for bits in range(17, 32)]
        self.assert_c_is_numpy(RnsBasis(primes, n), np.random.default_rng(17))
        self.assert_c_is_numpy(RnsBasis(primes[::-1], n), np.random.default_rng(31))

    @pytest.mark.parametrize("special", [1, 2, 3])
    def test_small_data_primes_under_31_bit_special_primes(self, special):
        n = 1024
        data = [largest_ntt_prime_below(1 << bits, n) for bits in (17, 18, 20)]
        top = largest_ntt_prime_below(1 << 31, n)
        specials = [top - 2 * n * step for step in range(64) if is_prime(top - 2 * n * step)]
        basis = RnsBasis(data + specials[:special], n, special=special)
        self.assert_c_is_numpy(basis, np.random.default_rng(special))

    @pytest.mark.parametrize("special", [1, 2])
    def test_the_joined_key_bases_of_every_level(self, special):
        context = CkksContext(
            256, [20, 25, 28, 30] + [30] * special, enforce_security=False,
            special_primes=special,
        )
        for level in range(context.max_level):
            key_basis = context.key_basis(level)
            assert level == 0 or len(key_basis.kernel.runs) == 2
            # What a key switch divides by, and a rescale of an extended polynomial.
            counts = [count for count in (special, special + 1) if count < len(key_basis)]
            self.assert_c_is_numpy(key_basis, np.random.default_rng(level), counts)

    def test_rows_of_another_shape_are_refused_before_c_reads_them(self):
        basis = RnsBasis(kernel_primes(64, 4), 64)
        constants = basis.rescale_constants(2)
        kept, dropped = np.zeros((2, 64), np.int64), np.zeros((2, 64), np.int64)
        for call in (
            lambda: constants.divide(kept[:1], dropped),
            lambda: constants.divide(kept, dropped[:, :32]),
            lambda: constants.divide(dropped=np.zeros((3, 64), np.int64)),
            lambda: constants.divide(kept, correction=np.zeros((2, 128), np.int64)),
        ):
            with pytest.raises(ParameterError, match="residues"):
                call()

    def test_the_constants_are_built_once_per_basis_and_count(self):
        basis = RnsBasis(kernel_primes(64, 4), 64)
        assert basis.rescale_constants(2) is basis.rescale_constants(2)
        assert basis.rescale_constants(1) is not basis.rescale_constants(2)
        for count in (1, 2, 3):
            constants = basis.rescale_constants(count)
            assert np.array_equal(constants.inverses[0], basis.rescale_inverses(count).ravel())
            # Every Shoup operand is below 2^32, every constant below its modulus.
            for table in (constants.steps, constants.weights, constants.inverses):
                assert table.dtype == np.int64 and table.min() >= 0 and table.max() < 2**32


class TestHostBuild:
    """The C kernels are built for the host CPU, named by what the compiler
    says that CPU is, and fall back to the portable build with one warning."""

    @pytest.fixture(autouse=True)
    def needs_cc(self):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on this host")

    def loaded_name(self):
        return pathlib.Path(ntt.native_library()._name).name

    def test_the_host_build_loads_where_the_compiler_takes_march_native(self, fresh_library):
        try:
            ntt._host_probe()
        except (OSError, subprocess.SubprocessError):
            pytest.skip("this compiler does not take -march=native")
        assert ntt.stages_in_c() and "-march=native" in ntt.build_command()

    def test_a_different_probe_gives_a_different_library(self, fresh_library, monkeypatch):
        names = []
        for probe in (b"#define __AVX2__ 1\n", b"#define __AVX512F__ 1\n"):
            monkeypatch.setattr(ntt, "_host_probe", lambda probe=probe: probe)
            monkeypatch.setattr(ntt, "_NATIVE", {})
            assert "-march=native" in ntt.build_command()
            names.append(self.loaded_name())
        assert names[0] != names[1]
        assert sorted(path.name for path in fresh_library.iterdir()) == sorted(names)

    def test_a_library_named_for_another_probe_is_never_loaded(
        self, fresh_library, monkeypatch, caplog
    ):
        monkeypatch.setattr(ntt, "_host_probe", lambda: b"one host")
        ntt.native_library()
        other = fresh_library / self.loaded_name()
        # Replaced, not rewritten: this process still maps the library.
        (fresh_library / "garbage").write_bytes(b"not a library")
        os.replace(fresh_library / "garbage", other)
        monkeypatch.setattr(ntt, "_host_probe", lambda: b"another host")
        monkeypatch.setattr(ntt, "_NATIVE", {})
        with caplog.at_level(logging.WARNING, logger=ntt.__name__):
            assert "-march=native" in ntt.build_command()
        assert self.loaded_name() != other.name and not caplog.records
        assert other.read_bytes() == b"not a library"

    def test_a_build_removes_aged_libraries_and_keeps_fresh_and_loaded_ones(
        self, fresh_library, monkeypatch
    ):
        monkeypatch.setattr(ntt, "_host_probe", lambda: b"this host")
        ntt.native_library()
        loaded = fresh_library / self.loaded_name()
        aged, fresh = fresh_library / "ntt-aged.so", fresh_library / "ntt-fresh.so"
        aged.write_bytes(b"a library no tree names")
        fresh.write_bytes(b"the library of another tree in use")
        stale = time.time() - ntt._STALE_SECONDS - 60.0
        for path in (aged, loaded):
            os.utime(path, (stale, stale))
        monkeypatch.setattr(ntt, "_NATIVE", {})
        ntt.native_library()  # a hit: touches the library it loads, builds nothing
        assert aged.exists() and loaded.stat().st_mtime > stale + 60.0
        monkeypatch.setattr(ntt, "_host_probe", lambda: b"another host")
        monkeypatch.setattr(ntt, "_NATIVE", {})
        ntt.native_library()  # a build: prunes by age, not by name
        built = fresh_library / self.loaded_name()
        assert sorted(p.name for p in fresh_library.iterdir()) == sorted(
            [loaded.name, fresh.name, built.name]
        )

    def test_a_failing_probe_gives_the_portable_build_and_the_same_bits(
        self, fresh_library, monkeypatch, caplog
    ):
        monkeypatch.setattr(ntt, "_KERNEL_CACHE", {})
        primes = kernel_primes(256, 4)
        basis = RnsBasis(primes, 256)
        values = kernel_inputs(np.random.default_rng(5), primes, 256, (2,))
        poly = RnsPolynomial(basis, values[0])
        with numpy_only(monkeypatch):
            want = [basis.kernel.forward(values), poly.divide_and_round_last(2).residues]

        def refused():
            raise subprocess.CalledProcessError(1, "cc -march=native")

        monkeypatch.setattr(ntt, "_host_probe", refused)
        with caplog.at_level(logging.WARNING, logger=ntt.__name__):
            assert ntt.build_command() == ntt._COMPILE
            got = [basis.kernel.forward(values), poly.divide_and_round_last(2).residues]
        (record,) = [r for r in caplog.records if r.name == ntt.__name__]
        assert "built for any CPU" in record.getMessage()
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        (library,) = fresh_library.iterdir()
        assert library.name == self.loaded_name()


class TestGaloisPermutation:
    @pytest.mark.parametrize("n", [64, 256])
    def test_permutation_matches_coefficient_automorphism(self, n):
        """Order-free: permuting the transform == transforming the automorphism."""
        basis = RnsBasis(generate_ntt_primes([25, 30], n), n)
        rng = np.random.default_rng(n)
        elements = [pow(5, k, 2 * n) for k in (1, 2, 3, n // 4)] + [2 * n - 1]
        for element in elements:
            perm = galois_ntt_permutation(n, element)
            assert sorted(perm.tolist()) == list(range(n)), "not a permutation"
            for draw in range(DRAWS):
                poly = random_residues(rng, basis)
                via_coeffs = basis.kernel.forward(poly.automorphism(element).residues)
                via_perm = basis.kernel.forward(poly.residues)[..., perm]
                assert np.array_equal(via_coeffs, via_perm)


class TestRnsKernelsAgainstReference:
    @pytest.mark.parametrize("level_primes", [2, 3, 5])
    def test_divide_and_round_last(self, level_primes):
        n = 128
        primes = generate_ntt_primes([24] * level_primes + [28], n)
        basis = RnsBasis(primes, n)
        rng = np.random.default_rng(level_primes)
        for draw in range(DRAWS):
            poly = random_residues(rng, basis)
            fast = poly.divide_and_round_last()
            slow = divide_and_round_last_reference(poly)
            assert fast.basis == slow.basis
            assert np.array_equal(fast.residues, slow.residues)
            two = divide_and_round_sequential(poly, 2)
            for form in (poly, poly.to_eval()):
                fused = form.divide_and_round_last(2)
                assert fused.form == form.form and fused.basis == two.basis
                assert np.array_equal(fused.to_coeff().residues, two.residues)

    def test_to_int_coefficients(self):
        n = 64
        basis = RnsBasis(generate_ntt_primes([22, 24, 26], n), n)
        rng = np.random.default_rng(11)
        for draw in range(DRAWS):
            poly = random_residues(rng, basis)
            assert to_int_coefficients(poly) == to_int_coefficients_reference(poly)

    @pytest.mark.parametrize("count", range(1, 9))
    def test_to_float_coefficients(self, count):
        """The int64/float64 Garner composition against the exact big-integer one."""
        n = 64
        basis = RnsBasis(generate_ntt_primes([20, 28, 25, 30, 22, 27, 29, 24][:count], n), n)
        modulus = basis_modulus(basis)
        rng = np.random.default_rng(count)
        # Anywhere in (-Q/2, Q/2]: each of the count - 1 float steps may round once.
        edges = [modulus // 2, -(modulus // 2), modulus // 2 - 1, 1 - modulus // 2, 0, 1, -1]
        polys = [random_residues(rng, basis) for draw in range(DRAWS)]
        polys.append(from_int_coefficients(basis, (edges * n)[:n]))
        for poly in polys:
            exact = np.asarray(to_int_coefficients(poly), dtype=np.float64)
            for form in (poly, poly.to_eval()):
                got = form.to_float_coefficients()
                assert got.dtype == np.float64
                assert np.allclose(got, exact, rtol=count * 2.0**-53, atol=0)
        # Below 2^53 the high digits are exactly zero and so is the error.
        bound = min(2**53, modulus // 2)
        small = [int(v) for v in rng.integers(-bound + 1, bound, size=n)]
        small[:4] = [bound - 1, 1 - bound, 0, -1]
        poly = from_int_coefficients(basis, small)
        assert np.array_equal(poly.to_float_coefficients(), np.asarray(small, dtype=np.float64))

    def test_roundtrip_through_int_coefficients(self):
        n = 64
        basis = RnsBasis(generate_ntt_primes([22, 24], n), n)
        rng = np.random.default_rng(13)
        poly = random_residues(rng, basis)
        back = from_int_coefficients(basis, to_int_coefficients(poly))
        assert np.array_equal(back.residues, poly.residues)


class TestKeySwitchAgainstReference:
    N = 1024
    SCALE = 2.0**24
    STEPS = (1, 2, 5, 7)

    @pytest.fixture(scope="class", params=[1, 2])
    def scheme(self, request):
        seed = request.param
        context = CkksContext(self.N, [26, 26, 26, 30], enforce_security=False)
        keygen = KeyGenerator(context, seed=seed)
        relin_key = keygen.create_relin_key()
        # STEPS plus the wrapped form of -1 (rotation steps are reduced
        # modulo the slot count before key lookup).
        galois_keys = keygen.create_galois_keys(self.STEPS + (self.N // 2 - 1,))
        return {
            "context": context,
            "encryptor": Encryptor(context, keygen.create_public_key(), seed=seed + 100),
            "decryptor": Decryptor(context, keygen.secret_key),
            "fast": Evaluator(context, relin_key, galois_keys),
            "reference": ReferenceEvaluator(context, relin_key, galois_keys),
        }

    def _fresh_cipher(self, scheme, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, scheme["context"].slots)
        return values, scheme["encryptor"].encode_and_encrypt(values, self.SCALE)

    def test_relinearize_is_bit_exact(self, scheme):
        for draw in range(DRAWS):
            _, cipher = self._fresh_cipher(scheme, draw)
            squared = scheme["fast"].multiply(cipher, cipher)
            fast = scheme["fast"].relinearize(squared)
            reference = scheme["reference"].relinearize(squared)
            assert fast.scale == reference.scale and fast.level == reference.level
            for a, b in zip(fast.to_coeff(), reference.polys):
                assert np.array_equal(a.residues, b.residues)

    def test_relinearize_bit_exact_at_lower_level(self, scheme):
        _, cipher = self._fresh_cipher(scheme, 99)
        dropped = scheme["fast"].mod_switch_to_next(cipher)
        squared = scheme["fast"].multiply(dropped, dropped)
        fast = scheme["fast"].relinearize(squared)
        reference = scheme["reference"].relinearize(squared)
        for a, b in zip(fast.to_coeff(), reference.polys):
            assert np.array_equal(a.residues, b.residues)

    def test_hoisted_rotation_matches_reference_at_noise_level(self, scheme):
        values, cipher = self._fresh_cipher(scheme, 17)
        for step in self.STEPS:
            fast = scheme["fast"].rotate(cipher, step)
            reference = scheme["reference"].rotate(cipher, step)
            expected = np.roll(values, -step)
            got_fast = np.real(scheme["decryptor"].decrypt(fast))
            got_reference = np.real(scheme["decryptor"].decrypt(reference))
            # Both decompositions must decrypt to the rotation; they differ
            # from each other only under the noise floor.
            assert np.max(np.abs(got_fast - expected)) < 1e-2
            assert np.max(np.abs(got_reference - expected)) < 1e-2
            assert np.max(np.abs(got_fast - got_reference)) < 1e-2

    def test_hoisted_rotations_share_one_decomposition(self, scheme):
        """Rotating the same ciphertext twice must reuse the cached digit
        NTTs and stay deterministic (same residues both times)."""
        _, cipher = self._fresh_cipher(scheme, 23)
        first = scheme["fast"].rotate(cipher, 2)
        again = scheme["fast"].rotate(cipher, 2)
        for a, b in zip(first.polys, again.polys):
            assert np.array_equal(a.residues, b.residues)

    def test_negative_and_wrapping_steps(self, scheme):
        values, cipher = self._fresh_cipher(scheme, 31)
        slots = scheme["context"].slots
        for step in (-1, slots + 2):
            fast = scheme["fast"].rotate(cipher, step)
            got = np.real(scheme["decryptor"].decrypt(fast))
            assert np.max(np.abs(got - np.roll(values, -step))) < 1e-2


def grouped_shapes(count, bits=25, one=30):
    """Every ``(group_size, special_primes, width)`` the selection rule admits
    for ``count`` data primes of ``bits`` bits, the security table aside:
    special primes of one width, at most ``one`` bits and at least 20, that
    divide the widest group by at least ``one - bits`` bits."""
    for size in range(1, count + 1):
        widest = bits * size
        for special in range(1, count + 2):
            width = max(-(-(widest + one - bits) // special), 20)
            if width <= one:
                yield size, special, width


def largest_difference(got, want):
    """``max |got - want|`` over the coefficients, composed exactly and centered."""
    modulus = basis_modulus(got.basis)
    differences = (np.array(to_int_coefficients(got), dtype=object) - want) % modulus
    return max(min(int(d), modulus - int(d)) for d in differences)


class TestGroupedKeySwitching:
    """Digits of several primes over several special primes, at every level:
    within the one-prime shape's error bound, and bit-exact against the
    grouped oracle where the oracle is exact.

    The bound is the one-prime shape's worst case: rounding a division by
    ``P`` leaves at most 1/2 per coefficient of ``c0`` and of ``c1 * s``, so
    ``(N + 1) / 2``, and the switching noise ``sum_j q_j * N * B_e / P_1``
    (``B_e`` = 6 sigma) divided by the 30-bit prime ``P_1`` — which grouping
    keeps, since its ``P`` divides each group by at least as much as ``P_1``
    divided one prime."""

    N = 64
    SCALE = 2.0**20

    @pytest.mark.parametrize(
        "count, group_size, special_primes, width",
        [(count, *shape) for count in range(1, 5) for shape in grouped_shapes(count)],
    )
    def test_every_switch_at_every_level(self, count, group_size, special_primes, width):
        context = CkksContext(
            self.N, [25] * count + [width] * special_primes, enforce_security=False,
            special_primes=special_primes, group_size=group_size,
        )  # fmt: skip
        assert len(context.digit_groups(0)) == -(-count // group_size)
        keygen = KeyGenerator(context, seed=count)
        keys = keygen.create_relin_key(), keygen.create_galois_keys([1, 3])
        fast, reference = Evaluator(context, *keys), ReferenceEvaluator(context, *keys)
        encryptor = Encryptor(context, keygen.create_public_key(), keygen.secret_key, seed=count)
        decryptor = Decryptor(context, keygen.secret_key)
        values = np.random.default_rng(count).uniform(-1.0, 1.0, context.slots)
        cipher = encryptor.encode_and_encrypt(values, self.SCALE)
        one_prime = generate_ntt_primes([25] * count + [30], self.N)
        bound = (self.N + 1) / 2 + sum(one_prime[:-1]) * self.N * 6 * 3.2 / one_prime[-1]
        for level in range(count):
            if level:
                cipher = fast.mod_switch_to_next(cipher)
            plain = decryptor.decrypt_poly(cipher)
            for step in (1, 3, 1):  # a single rotation, then two hoisted on its digits
                element = context.galois_element_for_step(step)
                want = np.array(to_int_coefficients(plain.automorphism(element)), dtype=object)
                for evaluator in (fast, reference):
                    rotated = decryptor.decrypt_poly(evaluator.rotate(cipher, step))
                    assert largest_difference(rotated, want) <= bound
            squared = fast.multiply(cipher, cipher)
            want = np.array(to_int_coefficients(decryptor.decrypt_poly(squared)), dtype=object)
            relinearized = fast.relinearize(squared)
            assert largest_difference(decryptor.decrypt_poly(relinearized), want) <= bound
            for got, expected in zip(relinearized.to_coeff(), reference.relinearize(squared).polys):
                assert np.array_equal(got.residues, expected.residues)

    def test_group_keys_round_trip_with_their_seeded_labels(self):
        """A key is one ``{b, seed}`` pair per group, named by the group's first
        data prime in basis order and labelled by that prime's index in the
        chain's consumption order; an import rebuilds the generator's forms
        and exports the same pairs, and a name inside a group is refused."""
        parameters = EncryptionParameters(
            1024, [25, 25, 25, 28, 28], rotation_steps=[1, 3], special_primes=2, group_size=2
        )
        backend = CkksBackend(seed=43, enforce_security=False)
        client = backend.create_context(parameters)
        client.generate_keys()
        context = client.context
        blob = json.loads(json.dumps(client.export_evaluation_keys()))
        basis = context.data_basis(0).primes  # last consumed first: groups [0, 1] and [2]
        names = [basis[2], basis[0]]  # in consumption order: the chain's first and third primes
        assert context.group_primes() == names[::-1] and names == context.consumable_primes[::2]
        for key in [blob["relin_key"], *blob["galois_keys"].values()]:
            assert [int(prime) for prime in key] == names
        server = backend.create_evaluation_context(parameters, blob)
        for element, key in server.evaluator.galois_keys.keys.items():
            labels = {prime: a.label for prime, a in key.seeds.items()}
            assert labels == {basis[2]: f"galois/{element}/0", basis[0]: f"galois/{element}/2"}
            generated = client.evaluator.galois_keys.keys[element].evaluation_form(context)
            assert key.form.shape == (2, 2, 5, 1024) and np.array_equal(key.form, generated)
        assert json.loads(json.dumps(server.export_evaluation_keys())) == blob
        values = np.linspace(-1.0, 1.0, context.slots)
        cipher = server.decode_cipher(json.loads(json.dumps(client.encode_cipher(client.encrypt(values, 20)))))
        rotated = client.decode_cipher(server.encode_cipher(server.rotate(cipher, 3)))
        assert np.allclose(client.decrypt(rotated), np.roll(values, -3), atol=1e-3)
        inside = json.loads(json.dumps(blob))
        inside["relin_key"] = {str(basis[1]): inside["relin_key"][str(basis[0])]}
        with pytest.raises(SerializationError, match="not a prime of the chain"):
            backend.create_evaluation_context(parameters, inside)

    @pytest.mark.parametrize(
        "shape, digest",
        [
            ("seeded", "811d77747a190b557e68aaeb51ab7690708bbf7fa909765d67a522047499ee9d"),
            ("written-out", "b1f54a4a9d93124ff5a43f377964f6b37870159ac6bce0ee3194ed8be562c608"),
            ("bitpacked", "589e1dad42711d50e4eee985e7f680019f96d93312dc48f3ee54170cac4ca4be"),
        ],
        ids=["seeded", "written-out", "bitpacked"],
    )
    def test_a_one_prime_key_blob_is_the_parent_commits_byte_for_byte(self, shape, digest):
        """Digits of one prime over one special prime are the shape every key
        had before groups: under a fixed seed the export hashes to what the
        commit before groups exported in each of its three shapes (digests
        taken there).  ``bitpacked`` is the export itself, the one shape
        writers now send; the other two are the test oracle's rewriting of
        it into the earlier builds' shapes, which the readers are held to."""
        parameters = EncryptionParameters(1024, [26, 26, 26, 30], rotation_steps=[1, 3])
        context = CkksBackend(seed=41, enforce_security=False).create_context(parameters)
        context.generate_keys()
        blob = context.export_evaluation_keys()
        if shape == "written-out":
            blob = write_out_seeds(context, blob)
        if shape != "bitpacked":
            blob = in_words(blob)
        data = json.dumps(blob, sort_keys=True, default=lambda raw: bytes(raw).hex()).encode()
        assert hashlib.sha256(data).hexdigest() == digest


class TestTransformOnceAgainstPairwise:
    """The batched operations transform each operand once; the answers must be
    bit-equal, in coefficient form, to the same formulas built from pairwise
    ``RnsPolynomial.multiply``."""

    N = 256
    SCALE = 2.0**22
    SEED = 41

    @pytest.fixture(scope="class")
    def scheme(self):
        context = CkksContext(self.N, [25, 25, 25, 30], enforce_security=False)
        keygen = KeyGenerator(context, seed=self.SEED)
        public_key = keygen.create_public_key()
        return {
            "context": context,
            "keygen": keygen,
            "public_key": public_key,
            "encryptor": Encryptor(context, public_key, seed=self.SEED),
            "decryptor": Decryptor(context, keygen.secret_key),
            "evaluator": Evaluator(context),
        }

    def _cipher(self, scheme, seed, level=0):
        values = np.random.default_rng(seed).uniform(-1.0, 1.0, scheme["context"].slots)
        return scheme["encryptor"].encode_and_encrypt(values, self.SCALE, level=level)

    @staticmethod
    def _assert_same(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.basis == b.basis
            assert np.array_equal(a.to_coeff().residues, b.to_coeff().residues)

    @pytest.mark.parametrize("level", [0, 1])
    def test_multiply(self, scheme, level):
        a, b = self._cipher(scheme, 1, level), self._cipher(scheme, 2, level)
        for left, right in ((a, b), (a, a)):
            (l0, l1), (r0, r1) = left.polys, right.polys
            want = [l0.multiply(r0), l0.multiply(r1).add(l1.multiply(r0)), l1.multiply(r1)]
            got = scheme["evaluator"].multiply(left, right)
            assert got.scale == left.scale * right.scale and got.level == level
            self._assert_same(got.polys, want)

    def test_square_of_an_equal_copy_matches_the_shared_operand_path(self, scheme):
        a = self._cipher(scheme, 3)
        shared = scheme["evaluator"].multiply(a, a)
        self._assert_same(scheme["evaluator"].multiply(a, a.copy()).polys, shared.polys)
        self._assert_same(scheme["evaluator"].square(a).polys, shared.polys)

    def test_multiply_plain(self, scheme):
        evaluator = scheme["evaluator"]
        values = np.linspace(-1.0, 1.0, scheme["context"].slots)
        plain = scheme["encryptor"].encode(values, self.SCALE)
        fresh = self._cipher(scheme, 4)
        for cipher in (fresh, evaluator.multiply(fresh, fresh)):  # sizes 2 and 3
            want = [poly.multiply(plain.poly) for poly in cipher.polys]
            self._assert_same(evaluator.multiply_plain(cipher, plain).polys, want)

    @pytest.mark.parametrize("level", [0, 2])
    def test_encrypt(self, scheme, level):
        context, public_key = scheme["context"], scheme["public_key"]
        basis = context.data_basis(level)
        values = np.arange(context.slots) / context.slots
        plain = scheme["encryptor"].encode(values, self.SCALE, level)
        for repeat in range(2):  # the second pass reads the key's cached evaluation form
            got = Encryptor(context, public_key, seed=7).encrypt(plain)  # no secret key
            sampler = RlweSampler(7, ENCRYPTION_SECRETS)
            u, e0, e1 = sampler.ternary(basis), sampler.error(basis), sampler.error(basis)
            pair = (public_key.b, written_out(public_key.a, public_key.b.basis))
            pk_b, pk_a = (restrict(p, basis) for p in pair)
            want = [pk_b.multiply(u).add(e0).add(plain.poly), pk_a.multiply(u).add(e1)]
            self._assert_same(got.polys, want)

    def test_decrypt_poly(self, scheme):
        evaluator, decryptor = scheme["evaluator"], scheme["decryptor"]
        fresh = self._cipher(scheme, 5)
        lowered = evaluator.mod_switch_to_next(fresh)
        squares = [evaluator.multiply(cipher, cipher) for cipher in (fresh, lowered)]
        for cipher in [fresh] + squares:
            s = scheme["keygen"].secret_key.poly_for(cipher.basis)
            want = cipher.polys[0].add(cipher.polys[1].multiply(s))
            if cipher.size == 3:
                want = want.add(cipher.polys[2].multiply(s.multiply(s)))
            for repeat in range(2):
                self._assert_same([decryptor.decrypt_poly(cipher)], [want])


class TestEvaluationFormStaysOffTheWire:
    """Ciphertexts and keys travel in coefficient form; the kernel's slot order
    and the keys' cached evaluation forms are never serialized.  The blob in
    ``tests/data`` was written by the commit before the batched kernel."""

    @pytest.fixture(scope="class")
    def frozen(self):
        path = pathlib.Path(__file__).parent / "data" / "ckks_wire_blob_pr11.json"
        return json.loads(path.read_text(encoding="utf-8"))

    @staticmethod
    def _client(frozen):
        parameters = EncryptionParameters(**frozen["parameters"])
        backend = CkksBackend(seed=frozen["seed"], enforce_security=False)
        client = backend.create_context(parameters)
        client.generate_keys()
        return backend, parameters, client

    def test_same_seed_still_derives_the_parent_secret_key(self, frozen):
        """Keys and ciphertexts are generated differently since seeds (the
        uniform halves are expansions, encryption is symmetric), so the blobs
        no longer reproduce bit for bit — but the secret key of a test seed is
        the one it always was: the parent's ciphertext decrypts."""
        _, _, client = self._client(frozen)
        decrypted = client.decrypt(client.decode_cipher(frozen["cipher"]))
        assert np.allclose(decrypted[:16], frozen["values"], atol=1e-3)
        again = self._client(frozen)[2]
        assert again.export_evaluation_keys() == client.export_evaluation_keys()

    def test_written_out_blobs_have_the_parent_record_shapes_and_lengths(self, frozen):
        """The test oracle's earlier-build shapes are the parent's, record for
        record: what tests hand the readers as an earlier build's blob is one."""
        def shape_of(node):
            """A blob with every payload replaced by its length."""
            if isinstance(node, dict):
                return {k: len(v) if k == "b64" else shape_of(v) for k, v in node.items()}
            return [shape_of(item) for item in node] if isinstance(node, list) else node

        _, _, client = self._client(frozen)
        cipher = client.encrypt(frozen["values"], frozen["scale_bits"])
        keys = in_words(write_out_seeds(client, client.export_evaluation_keys()))
        wire = in_words(client.encode_cipher(cipher.copy()))  # a copy is not fresh: no seed
        assert shape_of(keys) == shape_of(frozen["evaluation_keys"])
        assert shape_of(wire) == shape_of(frozen["cipher"])
        assert "seed" not in json.dumps([keys, wire])

    def test_parent_blob_round_trips_and_caches_never_leak(self, frozen):
        backend, parameters, client = self._client(frozen)
        server = backend.create_evaluation_context(parameters, frozen["evaluation_keys"])
        cipher = server.decode_cipher(frozen["cipher"])
        again = server.encode_cipher(cipher)  # bit-packed now, the same residues
        assert [poly["dtype"] for poly in again["polys"]] == ["bits", "bits"]
        assert in_words(again) == frozen["cipher"]
        # Every key is held in its evaluation form from the import on.
        rotated = server.rotate(cipher, 1)
        squared = server.relinearize(server.multiply(cipher, cipher))
        values = np.array(frozen["values"])
        reply = client.decode_cipher(json.loads(json.dumps(server.encode_cipher(rotated))))
        assert np.allclose(np.real(client.decrypt(reply))[:16], np.roll(values, -1), atol=1e-2)
        reply = client.decode_cipher(json.loads(json.dumps(server.encode_cipher(squared))))
        assert np.allclose(np.real(client.decrypt(reply))[:16], values**2, atol=1e-2)
        evaluator = server.evaluator
        used = [evaluator.relin_key.key] + list(evaluator.galois_keys.keys.values())
        assert all(key.form is not None and not key.pairs for key in used)
        # The export is rebuilt from the forms, exactly: the same residues.
        assert in_words(server.export_evaluation_keys()) == frozen["evaluation_keys"]
