"""HISA backend over the real RNS-CKKS implementation (:mod:`repro.ckks`).

This backend is the drop-in replacement for SEAL in the paper's toolchain:
the executor drives it through the same interface as the mock simulator, but
every ciphertext here is a genuine RLWE ciphertext and every operation is the
real homomorphic primitive.

Because the pure-Python scheme caps coefficient-modulus primes at 30 bits,
programs targeting this backend must be compiled with
``CompilerOptions(max_rescale_bits=<= 28)`` (the paper's 60-bit configuration
is available on the mock backend).  The scale bookkeeping is exact: rescaling
divides the scale by the actual prime, so decoded results carry no systematic
scale drift.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Tuple

import numpy as np

from ..ckks import (
    Ciphertext,
    CkksContext,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
    Plaintext,
)
from ..ckks.ciphertext import settled_coefficients
from ..ckks.encryptor import expand_ciphertext_seed
from ..ckks.keys import (
    PUBLIC_LABEL,
    RELIN_LABEL,
    GaloisKeys,
    KeySwitchingKey,
    PublicKey,
    RelinearizationKey,
    SeededUniform,
    UniformHalf,
    digit_label,
    galois_label,
)
from ..ckks.ntt import ntt_rows
from ..ckks.rns import RnsBasis, RnsPolynomial
from ..core.analysis.parameters import EncryptionParameters
from ..core.serialization.packing import pack_residues, pack_seed, unpack_residues, unpack_seed
from ..errors import ExecutionError, ParameterError, SerializationError
from .hisa import BackendContext, HomomorphicBackend, replicate_to_slots


def _poly_to_rows(poly: RnsPolynomial) -> Dict[str, Any]:
    """Pack an RNS polynomial's coefficient-form residue matrix, each row at its
    prime's bit width.  Evaluation form never reaches the wire."""
    return pack_residues(poly.to_coeff().residues, poly.basis.primes)


def _poly_from_rows(basis: RnsBasis, rows: Any) -> RnsPolynomial:
    """Inverse of :func:`_poly_to_rows`; also accepts legacy row lists.

    What comes back is safe to hand the NTT kernel, whose lazy butterflies
    assume reduced residues: the right shape, and every residue in ``[0, prime)``.
    """
    expected = (len(basis), basis.poly_modulus_degree)
    # A record's declared shape is checked before it is unpacked: it bounds
    # what unpacking allocates (a 1-bit row widens 64-fold).
    declared = rows.get("shape") if isinstance(rows, dict) else None
    residues = unpack_residues(rows) if declared in (None, list(expected)) else None
    if residues is None or residues.shape != expected:
        shape = declared if residues is None else residues.shape
        raise SerializationError(f"polynomial rows have shape {shape}, basis expects {expected}")
    # Unsigned, so one comparison also catches the negative ones.
    if (residues.view(np.uint64) >= basis.primes_column.view(np.uint64)).any():
        raise SerializationError("polynomial residues lie outside [0, prime)")
    return RnsPolynomial(basis, residues)


def _uniform_to_rows(uniform: UniformHalf) -> Dict[str, Any]:
    """A key's uniform half: its seed record, or for a key an earlier build
    wrote out, the packed polynomial it was imported as."""
    if isinstance(uniform, SeededUniform):
        return pack_seed(uniform.seed)
    return _poly_to_rows(uniform)


def _uniform_from_rows(basis: RnsBasis, rows: Any, label: str) -> UniformHalf:
    """Inverse of :func:`_uniform_to_rows`; ``label`` is the half's place in the key set."""
    seed = unpack_seed(rows)
    if seed is not None:
        return SeededUniform(seed, label)
    return _poly_from_rows(basis, rows)


def _keyswitch_to_dict(key: KeySwitchingKey, context: CkksContext) -> Dict[str, Any]:
    return {
        str(prime): [_poly_to_rows(b), _uniform_to_rows(a)]
        for prime, (b, a) in key.exported_pairs(context).items()
    }


def _keyswitch_from_dict(context: CkksContext, data: Dict[str, Any], family: str) -> KeySwitchingKey:
    basis = context.key_basis(0)
    names = context.group_primes()
    pairs: Dict[int, Tuple[RnsPolynomial, UniformHalf]] = {}
    for prime, (b_rows, a_rows) in data.items():
        prime = int(prime)
        if prime not in names:
            raise SerializationError(
                f"switching key names {prime}, not a prime of the chain that names a digit group"
            )
        label = digit_label(family, context.consumable_primes.index(prime))
        pairs[prime] = (_poly_from_rows(basis, b_rows), _uniform_from_rows(basis, a_rows, label))
    return KeySwitchingKey.imported(context, pairs)


class CkksBackendContext(BackendContext):
    """Execution context holding keys and evaluator for one compiled program."""

    def __init__(
        self,
        parameters: EncryptionParameters,
        seed: Optional[int] = None,
        enforce_security: bool = True,
    ) -> None:
        super().__init__(parameters)
        self.seed = seed
        self.enforce_security = enforce_security
        # What the compiler selected runs: refused if insecure, never edited.
        self.context = CkksContext(
            parameters.poly_modulus_degree,
            parameters.coeff_modulus_bits,
            security_level=parameters.security_level,
            enforce_security=enforce_security,
            special_primes=parameters.special_primes,
            group_size=parameters.group_size,
        )
        self.keygen: Optional[KeyGenerator] = None
        self.encryptor: Optional[Encryptor] = None
        self.decryptor: Optional[Decryptor] = None
        self.evaluator: Optional[Evaluator] = None
        self.op_count = 0
        self.live_ciphertexts = 0
        self.peak_live_ciphertexts = 0
        self.has_secret_key = False
        self.op_seconds: Dict[str, float] = {}
        self.op_counts: Dict[str, int] = {}
        self.op_ntt_rows: Dict[str, int] = {}

    # -- setup -----------------------------------------------------------------------
    def generate_keys(self, relinearize: bool = True) -> None:
        with self._op("keygen"):
            self.keygen = KeyGenerator(self.context, seed=self.seed)
            public_key = self.keygen.create_public_key()
            relin_key = self.keygen.create_relin_key() if relinearize else None
            galois_keys = self.keygen.create_galois_keys(self.parameters.rotation_steps)
        secret_key = self.keygen.secret_key
        # Holding the secret key, this context encrypts symmetrically.
        self.encryptor = Encryptor(self.context, public_key, secret_key, seed=self.seed)
        self.decryptor = Decryptor(self.context, secret_key)
        self.evaluator = Evaluator(self.context, relin_key, galois_keys)
        self.has_secret_key = True

    @property
    def can_relinearize(self) -> bool:
        """Whether this context holds a relinearization key."""
        return self.evaluator is not None and self.evaluator.relin_key is not None

    def _require_keys(self) -> None:
        if self.evaluator is None or self.encryptor is None:
            raise ParameterError("generate_keys() must be called before execution")

    # -- client/server split -----------------------------------------------------------
    def evaluation_context(self) -> "CkksBackendContext":
        """Derive a server-side context: public + evaluation keys, no secret key.

        The derived context shares this context's validated :class:`CkksContext`
        and its public, relinearization, and Galois keys; the key generator and
        decryptor are absent, so decryption is impossible by construction.
        """
        self._require_keys()
        derived = CkksBackendContext.__new__(CkksBackendContext)
        BackendContext.__init__(derived, self.parameters)
        derived.seed = self.seed
        derived.enforce_security = self.enforce_security
        derived.context = self.context
        derived.keygen = None
        derived.encryptor = Encryptor(self.context, self.encryptor.public_key, seed=self.seed)
        derived.decryptor = None
        derived.evaluator = Evaluator(
            self.context, self.evaluator.relin_key, self.evaluator.galois_keys
        )
        derived.op_count = 0
        derived.live_ciphertexts = 0
        derived.peak_live_ciphertexts = 0
        derived.has_secret_key = False
        derived.op_seconds = {}
        derived.op_counts = {}
        derived.op_ntt_rows = {}
        return derived

    def export_evaluation_keys(self) -> Dict[str, Any]:
        """Serialize public + evaluation keys (never the secret key)."""
        self._require_keys()
        public = self.encryptor.public_key
        blob: Dict[str, Any] = {
            "scheme": "ckks",
            "poly_modulus_degree": self.context.poly_modulus_degree,
            "public_key": [_poly_to_rows(public.b), _uniform_to_rows(public.a)],
        }
        relin = self.evaluator.relin_key
        if relin is not None:
            blob["relin_key"] = _keyswitch_to_dict(relin.key, self.context)
        galois = self.evaluator.galois_keys
        if galois is not None:
            blob["galois_keys"] = {
                str(element): _keyswitch_to_dict(key, self.context)
                for element, key in galois.keys.items()
            }
        return blob

    def import_evaluation_keys(self, blob: Dict[str, Any]) -> None:
        """Install exported key material, making this an evaluation context;
        each switching key is prepared here (:meth:`KeySwitchingKey.imported`)."""
        if not isinstance(blob, dict) or blob.get("scheme") != "ckks":
            raise SerializationError("not a CKKS evaluation key blob")
        if int(blob.get("poly_modulus_degree", 0)) != self.context.poly_modulus_degree:
            raise SerializationError(
                "evaluation keys were generated for a different polynomial "
                "modulus degree"
            )
        try:
            data_basis = self.context.data_basis(0)
            b_rows, a_rows = blob["public_key"]
            public = PublicKey(
                b=_poly_from_rows(data_basis, b_rows),
                a=_uniform_from_rows(data_basis, a_rows, PUBLIC_LABEL),
            )
            relin = None
            if "relin_key" in blob:
                relin = RelinearizationKey(
                    _keyswitch_from_dict(self.context, blob["relin_key"], RELIN_LABEL)
                )
            galois = GaloisKeys()
            for element, key_data in blob.get("galois_keys", {}).items():
                galois.keys[int(element)] = _keyswitch_from_dict(
                    self.context, key_data, galois_label(int(element))
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"malformed CKKS key blob: {exc}") from exc
        self.keygen = None
        self.decryptor = None
        self.encryptor = Encryptor(self.context, public, seed=self.seed)
        self.evaluator = Evaluator(self.context, relin, galois)
        self.has_secret_key = False

    def encode_cipher(self, handle: Ciphertext) -> Dict[str, Any]:
        if not handle.polys:
            raise SerializationError("cannot serialize a released ciphertext")
        # The wire is coefficient form over the data basis, whatever the
        # evaluator left the handle in; the conversion (and an extended
        # polynomial's owed division) is charged to "export" and kept nowhere.
        # A fresh symmetric ciphertext's c1 travels as the seed it expands from.
        with self._op("export"):
            seed = pack_seed(handle.seed) if handle.seed else None
            written = handle.polys[: 1 if seed else None]
            polys = [_poly_to_rows(settled_coefficients(poly)) for poly in written]
            polys += [seed] if seed else []
        return {
            "scheme": "ckks",
            "scale": float(handle.scale),
            "level": int(handle.level),
            "polys": polys,
        }

    def decode_cipher(self, data: Dict[str, Any]) -> Ciphertext:
        if not isinstance(data, dict) or data.get("scheme") != "ckks":
            raise SerializationError("not a CKKS ciphertext")
        try:
            level, scale, records = int(data["level"]), float(data["scale"]), list(data["polys"])
            if not 0 <= level < self.context.max_level:
                raise ValueError(f"level {level} is outside the modulus chain")
            if not (math.isfinite(scale) and scale > 0.0):
                raise ValueError(f"scale {scale} is not a positive finite number")
            if not records:
                raise ValueError("no polynomials")
            basis = self.context.data_basis(level)
            # Only c1 of a fresh two-polynomial ciphertext may be a seed record.
            seed = unpack_seed(records[1]) if len(records) == 2 else None
            polys = [_poly_from_rows(basis, rows) for rows in records[: 1 if seed else None]]
            if seed:
                polys.append(expand_ciphertext_seed(seed, basis))
            cipher = Ciphertext(polys=polys, scale=scale, level=level)
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"malformed CKKS ciphertext: {exc}") from exc
        self.live_ciphertexts += 1
        self.peak_live_ciphertexts = max(
            self.peak_live_ciphertexts, self.live_ciphertexts
        )
        return cipher

    def _track(self, cipher: Ciphertext) -> Ciphertext:
        self.op_count += 1
        self.live_ciphertexts += 1
        self.peak_live_ciphertexts = max(self.peak_live_ciphertexts, self.live_ciphertexts)
        return cipher

    @contextmanager
    def _op(self, op: str) -> Iterator[None]:
        """Charge the wall time and the NTT rows of the enclosed scheme call to ``op``.

        The row tally is the calling thread's, so the difference is exactly
        this call's work even while other sessions run on other workers.  A
        call that raises is not recorded.
        """
        started, rows = time.perf_counter(), ntt_rows()
        yield
        self.op_seconds[op] = self.op_seconds.get(op, 0.0) + time.perf_counter() - started
        self.op_counts[op] = self.op_counts.get(op, 0) + 1
        transformed = ntt_rows() - rows
        if transformed:
            self.op_ntt_rows[op] = self.op_ntt_rows.get(op, 0) + transformed

    def drain_op_times(self) -> Dict[str, Tuple[int, float]]:
        """Return and reset accumulated ``{op: (count, seconds)}`` timings.

        The serving layer harvests this after each execution to feed the
        ``ckks.op.*`` telemetry series; draining keeps the accounting
        per-request instead of cumulative.
        """
        snapshot = {
            op: (self.op_counts.get(op, 0), seconds)
            for op, seconds in self.op_seconds.items()
        }
        self.op_seconds = {}
        self.op_counts = {}
        return snapshot

    def drain_ntt_rows(self) -> Dict[str, int]:
        """Return and reset the exact ``{op: NTT rows}`` of the same operations."""
        snapshot, self.op_ntt_rows = self.op_ntt_rows, {}
        return snapshot

    # -- data movement -----------------------------------------------------------------
    def encode(self, values, scale_bits: float, level: int = 0) -> Plaintext:
        return self.encode_at_scale(values, 2.0 ** float(scale_bits), level)

    def encode_at_scale(self, values, scale: float, level: int = 0) -> Plaintext:
        """Encode at an exact (non power-of-two) scale; used for scale matching."""
        self._require_keys()
        with self._op("encode"):
            data = replicate_to_slots(values, self.slot_count)
            return self.encryptor.encode(data, float(scale), level=level)

    def encrypt(self, values, scale_bits: float, level: int = 0) -> Ciphertext:
        self._require_keys()
        with self._op("encrypt"):
            data = replicate_to_slots(values, self.slot_count)
            return self._track(
                self.encryptor.encode_and_encrypt(data, 2.0 ** float(scale_bits), level=level)
            )

    def decrypt(self, handle: Ciphertext) -> np.ndarray:
        self._require_keys()
        if self.decryptor is None:
            raise ExecutionError(
                "this context holds no secret key: decryption is a client-side "
                "operation (use the ClientKit that generated the keys)"
            )
        with self._op("decrypt"):
            return self.decryptor.decrypt(handle)

    # -- evaluation ----------------------------------------------------------------------
    def negate(self, a: Ciphertext) -> Ciphertext:
        with self._op("negate"):
            return self._track(self.evaluator.negate(a))

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        with self._op("add"):
            return self._track(self.evaluator.add(a, b))

    def add_plain(self, a: Ciphertext, b: Plaintext) -> Ciphertext:
        with self._op("add_plain"):
            return self._track(self.evaluator.add_plain(a, b))

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        with self._op("sub"):
            return self._track(self.evaluator.sub(a, b))

    def sub_plain(self, a: Ciphertext, b: Plaintext, reverse: bool = False) -> Ciphertext:
        with self._op("sub_plain"):
            return self._track(self.evaluator.sub_plain(a, b, reverse=reverse))

    def multiply(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        with self._op("multiply"):
            return self._track(self.evaluator.multiply(a, b))

    def multiply_plain(self, a: Ciphertext, b: Plaintext) -> Ciphertext:
        with self._op("multiply_plain"):
            return self._track(self.evaluator.multiply_plain(a, b))

    def rotate(self, a: Ciphertext, steps: int) -> Ciphertext:
        with self._op("rotate"):
            return self._track(self.evaluator.rotate(a, steps))

    def relinearize(self, a: Ciphertext) -> Ciphertext:
        with self._op("relinearize"):
            return self._track(self.evaluator.relinearize(a))

    def rescale(self, a: Ciphertext, bits: float) -> Ciphertext:
        expected = self.context.prime_at_level(a.level)
        if abs(math.log2(expected) - float(bits)) > 1.0:
            raise ParameterError(
                f"rescale by 2^{bits:g} requested but the next prime has "
                f"{math.log2(expected):.2f} bits"
            )
        with self._op("rescale"):
            result = self.evaluator.rescale_to_next(a)
            # Follow the paper's executor (footnote 1): book-keep the scale as if
            # the division had been by the power of two.  The chosen primes are as
            # close as possible to 2^bits, so the induced relative error per
            # rescale is on the order of 2N / 2^bits.
            result.scale = a.scale / (2.0 ** float(bits))
            return self._track(result)

    def mod_switch(self, a: Ciphertext) -> Ciphertext:
        with self._op("mod_switch"):
            return self._track(self.evaluator.mod_switch_to_next(a))

    # -- introspection ------------------------------------------------------------------
    def scale_bits(self, handle: Ciphertext) -> float:
        return math.log2(handle.scale)

    def level(self, handle: Ciphertext) -> int:
        return handle.level

    def check_input(self, name: str, handle: Ciphertext, scale_bits: float) -> None:
        super().check_input(name, handle, scale_bits)
        if handle.size != 2:
            raise ParameterError(
                f"input {name!r} has {handle.size} polynomials; a fresh ciphertext has 2"
            )
        degree = handle.polys[0].basis.poly_modulus_degree
        if degree != self.context.poly_modulus_degree:
            raise ParameterError(
                f"input {name!r} is a ciphertext of degree {degree}; the compilation "
                f"runs at N = {self.context.poly_modulus_degree}"
            )

    def check_rotation_keys(self, rotation_steps) -> None:
        galois = self.evaluator.galois_keys if self.evaluator else None
        held = galois.keys if galois else {}
        element = self.context.galois_element_for_step
        missing = [s for s in rotation_steps if s % self.context.slots and element(s) not in held]
        if missing:
            raise ParameterError(f"the evaluation keys hold no Galois key for rotation steps {missing}")

    def release(self, handle: Ciphertext) -> None:
        if handle.polys:  # a handle counts once, however often it is released
            handle.polys = []
            handle.seed = handle.hoisted = None
            self.live_ciphertexts = max(self.live_ciphertexts - 1, 0)


class CkksBackend(HomomorphicBackend):
    """Factory for :class:`CkksBackendContext` objects."""

    name = "ckks"

    def __init__(self, seed: Optional[int] = None, enforce_security: bool = True) -> None:
        self.seed = seed
        self.enforce_security = enforce_security

    def create_context(self, parameters: EncryptionParameters) -> CkksBackendContext:
        return CkksBackendContext(
            parameters, seed=self.seed, enforce_security=self.enforce_security
        )

    def create_evaluation_context(
        self, parameters: EncryptionParameters, evaluation_keys: Dict[str, Any]
    ) -> CkksBackendContext:
        context = self.create_context(parameters)
        context.import_evaluation_keys(evaluation_keys)
        return context
