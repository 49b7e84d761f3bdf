"""Tests for the RNS polynomial layer, the encoder, and the full CKKS scheme."""

import numpy as np
import pytest

from oracles.dense_encoder import DenseCkksEncoder

from repro.ckks import (
    CkksContext,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
    Plaintext,
)
from repro.ckks.encoder import CkksEncoder
from repro.ckks.numth import generate_ntt_primes
from repro.ckks.rns import RnsBasis, RnsPolynomial
from repro.errors import (
    EncodingError,
    LevelMismatchError,
    ModulusExhaustedError,
    ParameterError,
    PolynomialCountError,
    ScaleMismatchError,
    SecurityError,
)

N = 1024
SCALE = 2.0**24


@pytest.fixture(scope="module")
def ckks():
    """A small CKKS instance shared by the scheme tests (module scoped for speed)."""
    context = CkksContext(N, [26, 26, 26, 30], enforce_security=False)
    keygen = KeyGenerator(context, seed=42)
    public_key = keygen.create_public_key()
    relin_key = keygen.create_relin_key()
    galois_keys = keygen.create_galois_keys([1, 2, 5])
    encryptor = Encryptor(context, public_key, seed=43)
    decryptor = Decryptor(context, keygen.secret_key)
    evaluator = Evaluator(context, relin_key, galois_keys)
    return context, encryptor, decryptor, evaluator


def random_vector(context, seed=0, magnitude=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-magnitude, magnitude, context.slots)


class TestRnsPolynomial:
    @pytest.fixture
    def basis(self):
        return RnsBasis(generate_ntt_primes([26, 26], N), N)

    def test_add_sub_roundtrip(self, basis):
        rng = np.random.default_rng(0)
        a = RnsPolynomial.from_int64_coefficients(basis, rng.integers(-100, 100, N))
        b = RnsPolynomial.from_int64_coefficients(basis, rng.integers(-100, 100, N))
        np.testing.assert_array_equal(a.add(b).sub(b).residues, a.residues)

    def test_negate_is_additive_inverse(self, basis):
        rng = np.random.default_rng(1)
        a = RnsPolynomial.from_int64_coefficients(basis, rng.integers(-100, 100, N))
        zero = a.add(a.negate())
        assert not np.any(zero.residues)

    def test_crt_composition_recovers_coefficients(self, basis):
        coeffs = np.array([5, -7, 123456] + [0] * (N - 3), dtype=np.int64)
        poly = RnsPolynomial.from_int64_coefficients(basis, coeffs)
        recovered = poly.to_int_coefficients()
        assert recovered[:3] == [5, -7, 123456]

    def test_basis_mismatch_rejected(self, basis):
        other = RnsBasis(generate_ntt_primes([26], N), N)
        a = RnsPolynomial.zero(basis)
        b = RnsPolynomial.zero(other)
        with pytest.raises(ParameterError):
            a.add(b)

    def test_drop_last_reduces_basis(self, basis):
        a = RnsPolynomial.zero(basis)
        assert len(a.drop_last().basis) == 1

    def test_automorphism_identity(self, basis):
        rng = np.random.default_rng(2)
        a = RnsPolynomial.from_int64_coefficients(basis, rng.integers(0, 100, N))
        np.testing.assert_array_equal(a.automorphism(1).residues, a.residues)


class TestEncoder:
    def test_encode_decode_roundtrip(self):
        encoder = CkksEncoder(N)
        values = np.random.default_rng(0).uniform(-1, 1, encoder.slots)
        decoded = encoder.decode_real(encoder.encode(values, SCALE), SCALE)
        np.testing.assert_allclose(decoded, values, atol=1e-4)

    def test_scalar_broadcast(self):
        encoder = CkksEncoder(N)
        decoded = encoder.decode_real(encoder.encode(0.75, SCALE), SCALE)
        np.testing.assert_allclose(decoded, 0.75, atol=1e-4)

    def test_short_vector_replication(self):
        encoder = CkksEncoder(N)
        decoded = encoder.decode_real(encoder.encode([1.0, -1.0], SCALE), SCALE)
        np.testing.assert_allclose(decoded[:4], [1.0, -1.0, 1.0, -1.0], atol=1e-4)

    def test_additive_homomorphism_of_encoding(self):
        encoder = CkksEncoder(N)
        a = np.random.default_rng(1).uniform(-1, 1, encoder.slots)
        b = np.random.default_rng(2).uniform(-1, 1, encoder.slots)
        summed = encoder.encode(a, SCALE) + encoder.encode(b, SCALE)
        np.testing.assert_allclose(encoder.decode_real(summed, SCALE), a + b, atol=1e-3)

    def test_oversized_input_rejected(self):
        encoder = CkksEncoder(N)
        with pytest.raises(EncodingError):
            encoder.encode(np.ones(encoder.slots * 2), SCALE)

    def test_non_dividing_length_rejected(self):
        encoder = CkksEncoder(N)
        with pytest.raises(EncodingError):
            encoder.encode(np.ones(3), SCALE)

    def test_overflowing_scale_rejected(self):
        encoder = CkksEncoder(N)
        with pytest.raises(EncodingError):
            encoder.encode(np.ones(encoder.slots), 2.0**63)


class TestContext:
    def test_security_enforcement(self):
        with pytest.raises(SecurityError):
            CkksContext(1024, [26, 26, 26, 30], enforce_security=True)
        CkksContext(4096, [26, 26, 26, 30], enforce_security=True)

    def test_basis_ordering_consumes_in_chain_order(self):
        context = CkksContext(N, [20, 22, 24, 30], enforce_security=False)
        level0 = context.data_basis(0)
        level1 = context.data_basis(1)
        # The prime consumed first (level 0 -> 1) is the first chain entry (20 bits).
        dropped = set(level0.primes) - set(level1.primes)
        assert len(dropped) == 1
        assert abs(np.log2(dropped.pop()) - 20) < 1.0

    def test_galois_element_is_power_of_five(self):
        context = CkksContext(N, [26, 30], enforce_security=False)
        assert context.galois_element_for_step(1) == 5
        assert context.galois_element_for_step(2) == 25 % (2 * N)


class TestSchemeOperations:
    def test_plaintexts_from_fft_and_dense_encoders_decrypt_identically(self, ckks):
        """Same values, same encryption randomness: a plaintext built by the
        dense oracle and one built by the FFT encoder decrypt to the same slots
        (their coefficients differ by at most one unit at a rounding tie)."""
        context, encryptor, decryptor, _ = ckks
        values = random_vector(context, 11)
        decrypted = []
        for encoder in (context.encoder, DenseCkksEncoder(N)):
            poly = RnsPolynomial.from_int64_coefficients(
                context.data_basis(0), encoder.encode(values, SCALE)
            )
            seeded = Encryptor(context, encryptor.public_key, seed=99)
            cipher = seeded.encrypt(Plaintext(poly=poly, scale=SCALE, level=0))
            decrypted.append(decryptor.decrypt(cipher))
        np.testing.assert_allclose(decrypted[0], decrypted[1], atol=N / SCALE)
        np.testing.assert_allclose(decrypted[0], values, atol=5e-3)

    def test_encrypt_decrypt(self, ckks):
        context, encryptor, decryptor, _ = ckks
        values = random_vector(context, 0)
        decrypted = decryptor.decrypt(encryptor.encode_and_encrypt(values, SCALE))
        np.testing.assert_allclose(decrypted, values, atol=5e-3)

    def test_homomorphic_addition(self, ckks):
        context, encryptor, decryptor, evaluator = ckks
        a, b = random_vector(context, 1), random_vector(context, 2)
        result = evaluator.add(
            encryptor.encode_and_encrypt(a, SCALE), encryptor.encode_and_encrypt(b, SCALE)
        )
        np.testing.assert_allclose(decryptor.decrypt(result), a + b, atol=1e-2)

    def test_homomorphic_subtraction_and_negation(self, ckks):
        context, encryptor, decryptor, evaluator = ckks
        a, b = random_vector(context, 3), random_vector(context, 4)
        ca, cb = encryptor.encode_and_encrypt(a, SCALE), encryptor.encode_and_encrypt(b, SCALE)
        np.testing.assert_allclose(decryptor.decrypt(evaluator.sub(ca, cb)), a - b, atol=1e-2)
        np.testing.assert_allclose(decryptor.decrypt(evaluator.negate(ca)), -a, atol=1e-2)

    def test_homomorphic_multiplication_with_relinearization(self, ckks):
        context, encryptor, decryptor, evaluator = ckks
        a, b = random_vector(context, 5), random_vector(context, 6)
        product = evaluator.relinearize(
            evaluator.multiply(
                encryptor.encode_and_encrypt(a, SCALE), encryptor.encode_and_encrypt(b, SCALE)
            )
        )
        assert product.size == 2
        np.testing.assert_allclose(decryptor.decrypt(product), a * b, atol=5e-2)

    def test_rescale_divides_scale_and_preserves_value(self, ckks):
        context, encryptor, decryptor, evaluator = ckks
        a, b = random_vector(context, 7), random_vector(context, 8)
        product = evaluator.relinearize(
            evaluator.multiply(
                encryptor.encode_and_encrypt(a, SCALE), encryptor.encode_and_encrypt(b, SCALE)
            )
        )
        rescaled = evaluator.rescale_to_next(product)
        assert rescaled.level == 1
        assert rescaled.scale < product.scale
        np.testing.assert_allclose(decryptor.decrypt(rescaled), a * b, atol=5e-2)

    def test_plaintext_multiplication_and_addition(self, ckks):
        context, encryptor, decryptor, evaluator = ckks
        a = random_vector(context, 9)
        mask = random_vector(context, 10)
        cipher = encryptor.encode_and_encrypt(a, SCALE)
        product = evaluator.multiply_plain(cipher, encryptor.encode(mask, SCALE))
        np.testing.assert_allclose(decryptor.decrypt(product), a * mask, atol=5e-2)
        shifted = evaluator.add_plain(cipher, encryptor.encode(mask, cipher.scale))
        np.testing.assert_allclose(decryptor.decrypt(shifted), a + mask, atol=1e-2)

    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_rotation(self, ckks, steps):
        context, encryptor, decryptor, evaluator = ckks
        values = random_vector(context, 11)
        rotated = evaluator.rotate(encryptor.encode_and_encrypt(values, SCALE), steps)
        np.testing.assert_allclose(decryptor.decrypt(rotated), np.roll(values, -steps), atol=2e-2)

    def test_mod_switch_preserves_value_and_scale(self, ckks):
        context, encryptor, decryptor, evaluator = ckks
        values = random_vector(context, 12)
        cipher = encryptor.encode_and_encrypt(values, SCALE)
        switched = evaluator.mod_switch_to_next(cipher)
        assert switched.level == 1
        assert switched.scale == cipher.scale
        np.testing.assert_allclose(decryptor.decrypt(switched), values, atol=5e-3)

    def test_depth_two_computation(self, ckks):
        context, encryptor, decryptor, evaluator = ckks
        a = random_vector(context, 13, magnitude=0.8)
        cipher = encryptor.encode_and_encrypt(a, SCALE)
        square = evaluator.rescale_to_next(evaluator.relinearize(evaluator.multiply(cipher, cipher)))
        fourth = evaluator.rescale_to_next(evaluator.relinearize(evaluator.multiply(square, square)))
        np.testing.assert_allclose(decryptor.decrypt(fourth), a**4, atol=0.1)

    # -- error paths ---------------------------------------------------------------
    def test_level_mismatch_rejected(self, ckks):
        context, encryptor, _, evaluator = ckks
        a = encryptor.encode_and_encrypt(np.ones(4), SCALE)
        b = evaluator.mod_switch_to_next(encryptor.encode_and_encrypt(np.ones(4), SCALE))
        with pytest.raises(LevelMismatchError):
            evaluator.add(a, b)

    def test_scale_mismatch_rejected(self, ckks):
        context, encryptor, _, evaluator = ckks
        a = encryptor.encode_and_encrypt(np.ones(4), SCALE)
        b = encryptor.encode_and_encrypt(np.ones(4), SCALE * 4)
        with pytest.raises(ScaleMismatchError):
            evaluator.add(a, b)

    def test_multiply_requires_two_polynomials(self, ckks):
        context, encryptor, _, evaluator = ckks
        a = encryptor.encode_and_encrypt(np.ones(4), SCALE)
        three = evaluator.multiply(a, a)
        with pytest.raises(PolynomialCountError):
            evaluator.multiply(three, a)

    def test_rescale_exhausts_modulus(self, ckks):
        context, encryptor, _, evaluator = ckks
        cipher = encryptor.encode_and_encrypt(np.ones(4), SCALE)
        for _ in range(context.max_level - 1):
            cipher = evaluator.mod_switch_to_next(cipher)
        with pytest.raises(ModulusExhaustedError):
            evaluator.rescale_to_next(cipher)

    def test_rotation_without_key_rejected(self, ckks):
        context, encryptor, _, evaluator = ckks
        cipher = encryptor.encode_and_encrypt(np.ones(4), SCALE)
        with pytest.raises(ParameterError):
            evaluator.rotate(cipher, 7)  # only steps 1, 2, 5 have keys
