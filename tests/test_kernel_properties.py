"""Property tests pinning every optimized CKKS kernel to its retained oracle.

The hot paths of the scheme — the NTT, the rescale and CRT-composition
kernels, and the whole key-switching pipeline — run optimized variants; the
original implementations are kept as reference oracles precisely so the
optimized paths can be pinned against them over randomized inputs:

* the batched ``NttKernel`` vs ``NttContext.forward_reference`` /
  ``inverse_reference`` — bit-for-bit, under the kernel's documented slot
  order (``kernel[j] == reference[bit_reverse(j)]``);
* ``RnsPolynomial.divide_and_round_last`` / ``to_int_coefficients`` /
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

import json
import pathlib

import numpy as np
import pytest
from oracles.keyswitch import ReferenceEvaluator
from oracles.rns import (
    divide_and_round_last_reference,
    divide_and_round_sequential,
    to_int_coefficients_reference,
)

from repro.backend import CkksBackend
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
from repro.core.serialization.packing import expanded_seeds
from repro.errors import ParameterError

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
    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("bits", [20, 28])
    def test_forward_and_inverse_match_reference(self, n, bits):
        prime = generate_ntt_primes([bits], n)[0]
        ntt = get_ntt_context(prime, n)
        order = bit_reverse_indices(n)
        rng = np.random.default_rng(n * bits)
        for draw in range(DRAWS):
            coeffs = rng.integers(0, prime, size=n, dtype=np.int64)
            natural = ntt.forward_reference(coeffs)
            forward = ntt.forward(coeffs)
            assert np.array_equal(forward, natural[order])
            assert np.array_equal(ntt.inverse(forward), ntt.inverse_reference(natural))
            assert np.array_equal(ntt.inverse(forward), coeffs % prime)

    def test_edge_vectors(self):
        n = 128
        prime = generate_ntt_primes([25], n)[0]
        ntt = get_ntt_context(prime, n)
        order = bit_reverse_indices(n)
        for coeffs in (
            np.zeros(n, dtype=np.int64),
            np.full(n, prime - 1, dtype=np.int64),
            np.eye(1, n, 0, dtype=np.int64)[0],  # X^0
            np.eye(1, n, n - 1, dtype=np.int64)[0],  # X^(N-1)
        ):
            assert np.array_equal(ntt.forward(coeffs), ntt.forward_reference(coeffs)[order])
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
                oracle = get_ntt_context(prime, n)
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
            assert poly.to_int_coefficients() == to_int_coefficients_reference(poly)

    @pytest.mark.parametrize("count", range(1, 9))
    def test_to_float_coefficients(self, count):
        """The int64/float64 Garner composition against the exact big-integer one."""
        n = 64
        basis = RnsBasis(generate_ntt_primes([20, 28, 25, 30, 22, 27, 29, 24][:count], n), n)
        modulus = basis.modulus()
        rng = np.random.default_rng(count)
        # Anywhere in (-Q/2, Q/2]: each of the count - 1 float steps may round once.
        edges = [modulus // 2, -(modulus // 2), modulus // 2 - 1, 1 - modulus // 2, 0, 1, -1]
        polys = [random_residues(rng, basis) for draw in range(DRAWS)]
        polys.append(RnsPolynomial.from_int_coefficients(basis, (edges * n)[:n]))
        for poly in polys:
            exact = np.asarray(poly.to_int_coefficients(), dtype=np.float64)
            for form in (poly, poly.to_eval()):
                got = form.to_float_coefficients()
                assert got.dtype == np.float64
                assert np.allclose(got, exact, rtol=count * 2.0**-53, atol=0)
        # Below 2^53 the high digits are exactly zero and so is the error.
        bound = min(2**53, modulus // 2)
        small = [int(v) for v in rng.integers(-bound + 1, bound, size=n)]
        small[:4] = [bound - 1, 1 - bound, 0, -1]
        poly = RnsPolynomial.from_int_coefficients(basis, small)
        assert np.array_equal(poly.to_float_coefficients(), np.asarray(small, dtype=np.float64))

    def test_roundtrip_through_int_coefficients(self):
        n = 64
        basis = RnsBasis(generate_ntt_primes([22, 24], n), n)
        rng = np.random.default_rng(13)
        poly = random_residues(rng, basis)
        back = RnsPolynomial.from_int_coefficients(basis, poly.to_int_coefficients())
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
            pair = (public_key.b, public_key.a.coefficients(public_key.b.basis))
            pk_b, pk_a = (context.restrict(p, basis) for p in pair)
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
        def shape_of(node):
            """A blob with every payload replaced by its length."""
            if isinstance(node, dict):
                return {k: len(v) if k == "b64" else shape_of(v) for k, v in node.items()}
            return [shape_of(item) for item in node] if isinstance(node, list) else node

        _, _, client = self._client(frozen)
        cipher = client.encrypt(frozen["values"], frozen["scale_bits"])
        with expanded_seeds():
            keys, wire = client.export_evaluation_keys(), client.encode_cipher(cipher)
        assert shape_of(keys) == shape_of(frozen["evaluation_keys"])
        assert shape_of(wire) == shape_of(frozen["cipher"])
        assert "seed" not in json.dumps([keys, wire])

    def test_parent_blob_round_trips_and_caches_never_leak(self, frozen):
        backend, parameters, client = self._client(frozen)
        server = backend.create_evaluation_context(parameters, frozen["evaluation_keys"])
        cipher = server.decode_cipher(frozen["cipher"])
        assert server.encode_cipher(cipher) == frozen["cipher"]
        # Use every key so each one's evaluation-form cache is populated.
        rotated = server.rotate(cipher, 1)
        squared = server.relinearize(server.multiply(cipher, cipher))
        values = np.array(frozen["values"])
        reply = client.decode_cipher(json.loads(json.dumps(server.encode_cipher(rotated))))
        assert np.allclose(np.real(client.decrypt(reply))[:16], np.roll(values, -1), atol=1e-2)
        reply = client.decode_cipher(json.loads(json.dumps(server.encode_cipher(squared))))
        assert np.allclose(np.real(client.decrypt(reply))[:16], values**2, atol=1e-2)
        evaluator = server.evaluator
        used = [evaluator.relin_key.key] + list(evaluator.galois_keys.keys.values())
        assert all(key._evaluation_forms for key in used)
        assert server.export_evaluation_keys() == frozen["evaluation_keys"]
