"""Metadata-exact CKKS simulator backend.

The mock backend stores the logical (unencrypted) slot values of every
ciphertext, but otherwise behaves like an RNS-CKKS library: every handle
carries its scale, its position in the coefficient-modulus chain, and its
polynomial count, and every operation enforces the same preconditions SEAL
enforces, raising typed errors (:class:`~repro.errors.ScaleMismatchError`,
:class:`~repro.errors.LevelMismatchError`, ...) when they are violated.

Because the EVA compiler's guarantees are exactly about these preconditions,
the mock backend is a faithful oracle for the compiler while being fast enough
to run the DNN benchmarks of Section 8.  An optional Gaussian error model
injects encryption/key-switching noise of realistic magnitude so that
encrypted-vs-unencrypted accuracy comparisons (Table 4) are meaningful.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from ..core.analysis.parameters import EncryptionParameters
from ..errors import (
    ExecutionError,
    LevelMismatchError,
    ModulusExhaustedError,
    PolynomialCountError,
    ScaleMismatchError,
    SerializationError,
)
from .hisa import BackendContext, HomomorphicBackend, replicate_to_slots

#: Tolerance (bits) when comparing scales or rescale divisors.
_SCALE_TOLERANCE = 1.0
#: Standard deviation of the RLWE error distribution (SEAL's default).
_ERROR_STDDEV = 3.2


@dataclass
class MockPlaintext:
    """An encoded (but unencrypted) vector with its scale and level."""

    values: np.ndarray
    scale_bits: float
    level: int


@dataclass
class MockCiphertext:
    """A simulated ciphertext: logical values plus RNS-CKKS metadata."""

    values: np.ndarray
    scale_bits: float
    level: int
    num_polys: int = 2
    released: bool = False


class MockContext(BackendContext):
    """Execution context of the mock backend."""

    def __init__(
        self,
        parameters: EncryptionParameters,
        error_model: str = "gaussian",
        seed: Optional[int] = None,
        op_latency: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if error_model not in ("none", "gaussian"):
            raise ValueError(f"unknown error model {error_model!r}")
        if op_latency < 0:
            raise ValueError("op_latency must be non-negative")
        self.error_model = error_model
        #: Simulated per-operation hardware latency (seconds, slept).  Real
        #: CKKS primitives cost milliseconds each; the default mock executes
        #: in microseconds, so multi-process scaling experiments on it would
        #: measure the host's core count, not the serving stack.  A non-zero
        #: latency restores the real ratio of compute to coordination.
        self.op_latency = float(op_latency)
        self._rng = np.random.default_rng(seed)
        #: Consumable coefficient-modulus chain (the special primes are
        #: excluded: they are reserved for key switching, as in SEAL).
        self.chain_bits: List[int] = list(parameters.data_bits)
        self.keys_generated = False
        self.live_ciphertexts = 0
        self.peak_live_ciphertexts = 0
        self.op_count = 0

    # -- helpers ----------------------------------------------------------------
    def _remaining(self, level: int) -> int:
        return len(self.chain_bits) - level

    def _noise(self, scale_bits: float, magnitude: float = 1.0) -> np.ndarray:
        if self.error_model == "none":
            return np.zeros(self.slot_count)
        sigma = (
            magnitude
            * _ERROR_STDDEV
            * np.sqrt(self.parameters.poly_modulus_degree)
            / (2.0 ** min(scale_bits, 300.0))
        )
        return self._rng.normal(0.0, sigma, self.slot_count)

    def _track_new(self, cipher: MockCiphertext) -> MockCiphertext:
        self.live_ciphertexts += 1
        self.peak_live_ciphertexts = max(self.peak_live_ciphertexts, self.live_ciphertexts)
        self.op_count += 1
        if self.op_latency > 0:
            time.sleep(self.op_latency)
        return cipher

    @staticmethod
    def _check_binary(a: MockCiphertext, b: MockCiphertext, additive: bool) -> None:
        if a.level != b.level:
            raise LevelMismatchError(
                f"operands are at different levels ({a.level} vs {b.level}); "
                "encrypted parameters mismatch"
            )
        if additive and abs(a.scale_bits - b.scale_bits) > _SCALE_TOLERANCE:
            raise ScaleMismatchError(
                f"operand scales differ (2^{a.scale_bits:g} vs 2^{b.scale_bits:g})"
            )

    # -- BackendContext API ------------------------------------------------------
    def generate_keys(self, relinearize: bool = True) -> None:
        self.keys_generated = True

    # -- client/server split -----------------------------------------------------
    def evaluation_context(self) -> "MockContext":
        """A context with the (notional) secret key stripped.

        The simulator has no real key material, but the derived context
        faithfully models the trust boundary: ``has_secret_key`` is ``False``
        and :meth:`decrypt` refuses to run, so executing through it proves a
        code path never needed the secret key.
        """
        derived = MockContext(
            self.parameters,
            error_model=self.error_model,
            seed=int(self._rng.integers(0, 2**31)),
        )
        derived.keys_generated = self.keys_generated
        derived.has_secret_key = False
        return derived

    def export_evaluation_keys(self) -> Dict[str, Any]:
        return {"scheme": "mock", "error_model": self.error_model}

    def encode_cipher(self, handle: MockCiphertext) -> Dict[str, Any]:
        if handle.released:
            raise SerializationError("cannot serialize a released ciphertext")
        from ..core.serialization.packing import pack_values

        return {
            "scheme": "mock",
            "values": pack_values(handle.values),
            "scale_bits": float(handle.scale_bits),
            "level": int(handle.level),
            "num_polys": int(handle.num_polys),
        }

    def decode_cipher(self, data: Dict[str, Any]) -> MockCiphertext:
        if not isinstance(data, dict) or data.get("scheme") != "mock":
            raise SerializationError("not a mock-backend ciphertext")
        from ..core.serialization.packing import unpack_values

        try:
            # unpack_values accepts both the base64-packed form and the
            # legacy plain float list.
            values = unpack_values(data["values"])
            cipher = MockCiphertext(
                values=values,
                scale_bits=float(data["scale_bits"]),
                level=int(data["level"]),
                num_polys=int(data.get("num_polys", 2)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"malformed mock ciphertext: {exc}") from exc
        if values.size != self.slot_count:
            raise SerializationError(
                f"ciphertext carries {values.size} slots, context expects "
                f"{self.slot_count}"
            )
        self.live_ciphertexts += 1
        self.peak_live_ciphertexts = max(
            self.peak_live_ciphertexts, self.live_ciphertexts
        )
        return cipher

    def encode(self, values, scale_bits: float, level: int = 0) -> MockPlaintext:
        return MockPlaintext(
            values=replicate_to_slots(values, self.slot_count),
            scale_bits=float(scale_bits),
            level=int(level),
        )

    def encrypt(self, values, scale_bits: float, level: int = 0) -> MockCiphertext:
        data = replicate_to_slots(values, self.slot_count)
        data = data + self._noise(scale_bits)
        return self._track_new(
            MockCiphertext(values=data, scale_bits=float(scale_bits), level=int(level))
        )

    def decrypt(self, handle: MockCiphertext) -> np.ndarray:
        if not self.has_secret_key:
            raise ExecutionError(
                "this context holds no secret key: decryption is a client-side "
                "operation (use the ClientKit that generated the keys)"
            )
        return handle.values.copy()

    def negate(self, a: MockCiphertext) -> MockCiphertext:
        return self._track_new(
            MockCiphertext(-a.values, a.scale_bits, a.level, a.num_polys)
        )

    def add(self, a: MockCiphertext, b: MockCiphertext) -> MockCiphertext:
        self._check_binary(a, b, additive=True)
        return self._track_new(
            MockCiphertext(
                a.values + b.values,
                max(a.scale_bits, b.scale_bits),
                a.level,
                max(a.num_polys, b.num_polys),
            )
        )

    def add_plain(self, a: MockCiphertext, b: MockPlaintext) -> MockCiphertext:
        if abs(a.scale_bits - b.scale_bits) > _SCALE_TOLERANCE:
            raise ScaleMismatchError(
                f"plaintext scale 2^{b.scale_bits:g} does not match "
                f"ciphertext scale 2^{a.scale_bits:g}"
            )
        return self._track_new(
            MockCiphertext(a.values + b.values, a.scale_bits, a.level, a.num_polys)
        )

    def sub(self, a: MockCiphertext, b: MockCiphertext) -> MockCiphertext:
        self._check_binary(a, b, additive=True)
        return self._track_new(
            MockCiphertext(
                a.values - b.values,
                max(a.scale_bits, b.scale_bits),
                a.level,
                max(a.num_polys, b.num_polys),
            )
        )

    def sub_plain(self, a: MockCiphertext, b: MockPlaintext, reverse: bool = False) -> MockCiphertext:
        if abs(a.scale_bits - b.scale_bits) > _SCALE_TOLERANCE:
            raise ScaleMismatchError(
                f"plaintext scale 2^{b.scale_bits:g} does not match "
                f"ciphertext scale 2^{a.scale_bits:g}"
            )
        values = (b.values - a.values) if reverse else (a.values - b.values)
        return self._track_new(MockCiphertext(values, a.scale_bits, a.level, a.num_polys))

    def multiply(self, a: MockCiphertext, b: MockCiphertext) -> MockCiphertext:
        self._check_binary(a, b, additive=False)
        for operand in (a, b):
            if operand.num_polys != 2:
                raise PolynomialCountError(
                    f"multiplication operand has {operand.num_polys} polynomials; "
                    "relinearize first"
                )
        result_scale = a.scale_bits + b.scale_bits
        remaining_bits = sum(self.chain_bits[a.level:])
        if result_scale > remaining_bits + _SCALE_TOLERANCE:
            raise ModulusExhaustedError(
                f"scale 2^{result_scale:g} is out of bounds for the remaining "
                f"coefficient modulus (2^{remaining_bits} bits)"
            )
        return self._track_new(
            MockCiphertext(
                a.values * b.values,
                result_scale,
                a.level,
                a.num_polys + b.num_polys - 1,
            )
        )

    def multiply_plain(self, a: MockCiphertext, b: MockPlaintext) -> MockCiphertext:
        result_scale = a.scale_bits + b.scale_bits
        remaining_bits = sum(self.chain_bits[a.level:])
        if result_scale > remaining_bits + _SCALE_TOLERANCE:
            raise ModulusExhaustedError(
                f"scale 2^{result_scale:g} is out of bounds for the remaining "
                f"coefficient modulus (2^{remaining_bits} bits)"
            )
        return self._track_new(
            MockCiphertext(a.values * b.values, result_scale, a.level, a.num_polys)
        )

    def rotate(self, a: MockCiphertext, steps: int) -> MockCiphertext:
        values = np.roll(a.values, -int(steps))
        values = values + self._noise(a.scale_bits, magnitude=2.0)
        return self._track_new(MockCiphertext(values, a.scale_bits, a.level, a.num_polys))

    def relinearize(self, a: MockCiphertext) -> MockCiphertext:
        values = a.values + self._noise(a.scale_bits, magnitude=2.0)
        return self._track_new(MockCiphertext(values, a.scale_bits, a.level, 2))

    def rescale(self, a: MockCiphertext, bits: float) -> MockCiphertext:
        if self._remaining(a.level) < 2:
            raise ModulusExhaustedError(
                "cannot rescale: only one prime left in the coefficient modulus"
            )
        prime_bits = self.chain_bits[a.level]
        if abs(prime_bits - bits) > _SCALE_TOLERANCE:
            raise ModulusExhaustedError(
                f"rescale by 2^{bits:g} requested but the next prime has "
                f"{prime_bits} bits"
            )
        return self._track_new(
            MockCiphertext(
                a.values.copy(), a.scale_bits - float(bits), a.level + 1, a.num_polys
            )
        )

    def mod_switch(self, a: MockCiphertext) -> MockCiphertext:
        if self._remaining(a.level) < 2:
            raise ModulusExhaustedError(
                "cannot switch modulus: only one prime left in the coefficient modulus"
            )
        return self._track_new(
            MockCiphertext(a.values.copy(), a.scale_bits, a.level + 1, a.num_polys)
        )

    def scale_bits(self, handle: MockCiphertext) -> float:
        return handle.scale_bits

    def level(self, handle: MockCiphertext) -> int:
        return handle.level

    def release(self, handle: MockCiphertext) -> None:
        if isinstance(handle, MockCiphertext) and not handle.released:
            handle.released = True
            handle.values = np.empty(0)
            self.live_ciphertexts = max(self.live_ciphertexts - 1, 0)


class MockBackend(HomomorphicBackend):
    """Factory for :class:`MockContext` objects."""

    name = "mock"

    def __init__(
        self,
        error_model: str = "gaussian",
        seed: Optional[int] = None,
        op_latency: float = 0.0,
    ) -> None:
        self.error_model = error_model
        self.seed = seed
        self.op_latency = float(op_latency)

    def create_context(self, parameters: EncryptionParameters) -> MockContext:
        return MockContext(
            parameters,
            error_model=self.error_model,
            seed=self.seed,
            op_latency=self.op_latency,
        )

    def create_evaluation_context(
        self, parameters: EncryptionParameters, evaluation_keys: Dict[str, Any]
    ) -> MockContext:
        if not isinstance(evaluation_keys, dict) or evaluation_keys.get("scheme") != "mock":
            raise SerializationError("not a mock-backend evaluation key blob")
        context = MockContext(
            parameters,
            error_model=str(evaluation_keys.get("error_model", self.error_model)),
            seed=self.seed,
            op_latency=self.op_latency,
        )
        context.keys_generated = True
        context.has_secret_key = False
        return context
