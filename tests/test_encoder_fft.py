"""The twisted-FFT CKKS encoder against the dense-matrix oracle.

``tests/oracles/dense_encoder.py`` is the O(N^2) encoder production shipped
before: every slot one literal dot product with a row of the embedding
matrix.  These tests pin the FFT encoder to it coefficient by coefficient,
then cover what the dense encoder could not do (N >= 16384, O(N) memory) and
the inputs it answered with garbage (non-finite values, empty vectors, a zero
decode scale).
"""

import tracemalloc

import numpy as np
import pytest
from oracles.dense_encoder import DenseCkksEncoder

from repro.backend import CkksBackend
from repro.ckks import CkksContext, Decryptor, Encryptor, Evaluator, KeyGenerator
from repro.ckks.encoder import CkksEncoder
from repro.core import CompilerOptions
from repro.errors import EncodingError, ServingError
from repro.frontend import EvaProgram, input_encrypted, output
from repro.serving import EvaServer, EvaTcpServer, ServingClient

ORACLE_DEGREES = [8, 64, 512, 1024]
#: Scaled coefficients stay below 2^45, where float64 resolves 2^-8: the two
#: encoders' accumulated rounding (a few ulp) can only flip ``np.round`` at a
#: tie, i.e. by exactly one.
ORACLE_SCALES = [2.0**20, 2.0**30, 2.0**40]


def _inputs(slots, rng):
    """(label, values) pairs: full-width real and complex, a scalar, and every
    replicated width (``size | slots``) the EVA input rule allows."""
    yield "real", rng.uniform(-1, 1, slots)
    yield "complex", rng.uniform(-1, 1, slots) + 1j * rng.uniform(-1, 1, slots)
    yield "scalar", float(rng.uniform(-1, 1))
    size = 1
    while size < slots:
        yield f"replicated x{slots // size}", rng.uniform(-1, 1, size)
        size *= 2


class TestAgainstDenseOracle:
    @pytest.fixture(scope="class", params=ORACLE_DEGREES)
    def pair(self, request):
        return CkksEncoder(request.param), DenseCkksEncoder(request.param)

    @pytest.mark.parametrize("scale", ORACLE_SCALES)
    def test_encode_matches_in_every_coefficient(self, pair, scale):
        fast, oracle = pair
        rng = np.random.default_rng(fast.poly_modulus_degree)
        for label, values in _inputs(fast.slots, rng):
            got, want = fast.encode(values, scale), oracle.encode(values, scale)
            assert got.dtype == want.dtype == np.int64
            assert np.max(np.abs(got - want)) <= 1, label

    def test_decode_matches(self, pair):
        fast, oracle = pair
        rng = np.random.default_rng(fast.poly_modulus_degree + 1)
        scale = 2.0**30
        coefficients = rng.integers(-(2**40), 2**40, fast.poly_modulus_degree)
        np.testing.assert_allclose(
            fast.decode(coefficients, scale), oracle.decode(coefficients, scale), atol=1e-9
        )
        # Lists of Python ints wider than int64 (a CRT-composed plaintext) decode too.
        wide = [int(c) << 70 for c in coefficients]
        np.testing.assert_allclose(
            fast.decode(wide, scale * 2.0**70), oracle.decode(wide, scale * 2.0**70), atol=1e-9
        )


@pytest.mark.parametrize("degree", [4, 8, 1024, 8192, 16384, 32768])
def test_roundtrip_within_rounding_bound(degree):
    """Rounding moves each of N coefficients by <= 1/2, so a slot by <= N/(2 scale)."""
    encoder = CkksEncoder(degree)
    rng = np.random.default_rng(degree)
    scale = 2.0**30
    values = rng.uniform(-1, 1, encoder.slots) + 1j * rng.uniform(-1, 1, encoder.slots)
    decoded = encoder.decode(encoder.encode(values, scale), scale)
    assert np.max(np.abs(decoded - values)) <= 4 * degree / scale


class TestRejectedInputs:
    ENCODER = CkksEncoder(64)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_values(self, bad, recwarn):
        values = np.zeros(self.ENCODER.slots, dtype=np.complex128)
        values[3] = bad
        for candidate in (values, [bad], bad):
            with pytest.raises(EncodingError, match="non-finite"):
                self.ENCODER.encode(candidate, 2.0**20)
        assert not recwarn.list  # rejected before any arithmetic could warn

    def test_empty_input(self):
        with pytest.raises(EncodingError):
            self.ENCODER.encode([], 2.0**20)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
    def test_unusable_decode_scale(self, scale):
        with pytest.raises(EncodingError, match="scale"):
            self.ENCODER.decode(np.zeros(64, dtype=np.int64), scale)


def test_nan_submit_is_a_typed_error_on_the_wire():
    """A plaintext submit carrying a NaN used to be encrypted and evaluated as
    noise; now the client sees ``EncodingError`` and the connection lives on."""
    program = EvaProgram("poly", vec_size=8, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", x * x + 1.0, 25)
    server = EvaServer(backend=CkksBackend(), workers=1)
    server.register("poly", program, options=CompilerOptions(max_rescale_bits=25))
    tcp = EvaTcpServer(server, port=0)
    tcp.start_background()
    try:
        with pytest.raises(EncodingError, match="non-finite"):
            server.submit("poly", {"x": [0.5, float("nan")]}).result(timeout=30)
        with ServingClient(*tcp.address) as client:
            with pytest.raises(ServingError, match="EncodingError.*non-finite"):
                client.submit("poly", {"x": [0.5, float("inf")]})
            reply = client.submit("poly", {"x": [0.5, -1.0]})
        np.testing.assert_allclose(reply["y"][:2], [1.25, 2.0], atol=1e-2)
    finally:
        tcp.shutdown()
        tcp.server_close()
        server.close()


def test_tables_are_linear_in_the_ring_dimension():
    """The dense matrix was 537 MB at N=8192; the FFT tables are a 16 N-byte
    twist and two 8 N/2-byte index vectors.  Traced bytes repeat exactly from
    run to run, unlike a timing."""
    tracemalloc.start()
    try:
        encoder = CkksEncoder(8192)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024
    resident = encoder.twist.nbytes + encoder.index.nbytes + encoder.conj_index.nbytes
    assert resident == 16 * 8192 + 2 * 8 * 4096


def test_large_ring_pipeline_matches_numpy():
    """N=16384 — the smallest ring Sobel/Harris/LeNet need — end to end on the
    real scheme: encrypt, multiply, relinearize, rescale, rotate, decrypt."""
    context = CkksContext(16384, [25] * 6 + [30])
    keygen = KeyGenerator(context, seed=5)
    encryptor = Encryptor(context, keygen.create_public_key(), seed=6)
    decryptor = Decryptor(context, keygen.secret_key)
    evaluator = Evaluator(context, keygen.create_relin_key(), keygen.create_galois_keys([3]))
    rng = np.random.default_rng(7)
    a, b = rng.uniform(-1, 1, (2, context.slots))
    scale = 2.0**30
    product = evaluator.multiply(
        encryptor.encode_and_encrypt(a, scale), encryptor.encode_and_encrypt(b, scale)
    )
    rotated = evaluator.rotate(evaluator.rescale_to_next(evaluator.relinearize(product)), 3)
    np.testing.assert_allclose(decryptor.decrypt(rotated), np.roll(a * b, -3), atol=1e-2)


def test_context_constructs_at_32768():
    context = CkksContext(32768, [25] * 6 + [30])
    keygen = KeyGenerator(context, seed=8)
    encryptor = Encryptor(context, keygen.create_public_key(), seed=9)
    values = np.random.default_rng(10).uniform(-1, 1, context.slots)
    decrypted = Decryptor(context, keygen.secret_key).decrypt(
        encryptor.encode_and_encrypt(values, 2.0**30)
    )
    np.testing.assert_allclose(decrypted, values, atol=1e-3)
