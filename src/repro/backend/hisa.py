"""The Homomorphic Instruction Set Architecture (HISA) backend interface.

CHET introduced HISA as a common abstraction over FHE libraries; the EVA
executor drives backends exclusively through this interface, so swapping the
metadata simulator for the real RNS-CKKS implementation (or, in principle, a
binding to an external library) requires no executor changes.

A backend supplies a :class:`BackendContext` built from the encryption
parameters the compiler selected; the context performs key generation,
encoding/encryption, the homomorphic evaluation operations of Table 2, and
decryption.  Ciphertext and plaintext handles are backend-specific opaque
objects.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Sequence

import numpy as np

from ..core.analysis.parameters import EncryptionParameters
from ..errors import ParameterError

CipherHandle = Any
PlainHandle = Any


class BackendContext(abc.ABC):
    """Per-program execution context of a homomorphic backend."""

    #: Whether this context holds secret-key material (i.e. can decrypt).
    #: Evaluation-only contexts derived for a server set this to ``False``.
    has_secret_key: bool = True

    def __init__(self, parameters: EncryptionParameters) -> None:
        self.parameters = parameters

    def drain_op_times(self) -> dict:
        """Return and reset per-op ``{op: (count, seconds)}`` wall-time totals.

        Backends that measure real kernel time (the CKKS backend) override
        this; the default reports nothing, so the serving layer can harvest
        unconditionally.
        """
        return {}

    def drain_ntt_rows(self) -> dict:
        """Return and reset the exact per-op ``{op: NTT rows}`` of those operations.

        Rows are counted, not timed, so the number repeats run to run; only
        the CKKS backend transforms anything.
        """
        return {}

    # -- setup -----------------------------------------------------------------
    @property
    def slot_count(self) -> int:
        """Number of plaintext slots available per ciphertext (``N / 2``)."""
        return self.parameters.slots

    @abc.abstractmethod
    def generate_keys(self, relinearize: bool = True) -> None:
        """Generate secret/public/Galois keys, and a relinearization key
        unless ``relinearize`` is false (a program with no ``RELINEARIZE``)."""

    #: Whether the keys hold a relinearization key (evaluation may relinearize).
    can_relinearize = True

    # -- data movement ----------------------------------------------------------
    @abc.abstractmethod
    def encode(self, values: np.ndarray, scale_bits: float, level: int = 0) -> PlainHandle:
        """Encode a plaintext vector (or scalar) at the given scale and level."""

    @abc.abstractmethod
    def encrypt(self, values: np.ndarray, scale_bits: float, level: int = 0) -> CipherHandle:
        """Encode and encrypt a vector at the given scale and level."""

    @abc.abstractmethod
    def decrypt(self, handle: CipherHandle) -> np.ndarray:
        """Decrypt and decode a ciphertext back to a float vector."""

    # -- evaluation -------------------------------------------------------------
    @abc.abstractmethod
    def negate(self, a: CipherHandle) -> CipherHandle: ...

    @abc.abstractmethod
    def add(self, a: CipherHandle, b: CipherHandle) -> CipherHandle: ...

    @abc.abstractmethod
    def add_plain(self, a: CipherHandle, b: PlainHandle) -> CipherHandle: ...

    @abc.abstractmethod
    def sub(self, a: CipherHandle, b: CipherHandle) -> CipherHandle: ...

    @abc.abstractmethod
    def sub_plain(self, a: CipherHandle, b: PlainHandle, reverse: bool = False) -> CipherHandle: ...

    @abc.abstractmethod
    def multiply(self, a: CipherHandle, b: CipherHandle) -> CipherHandle: ...

    @abc.abstractmethod
    def multiply_plain(self, a: CipherHandle, b: PlainHandle) -> CipherHandle: ...

    @abc.abstractmethod
    def rotate(self, a: CipherHandle, steps: int) -> CipherHandle: ...

    @abc.abstractmethod
    def relinearize(self, a: CipherHandle) -> CipherHandle: ...

    @abc.abstractmethod
    def rescale(self, a: CipherHandle, bits: float) -> CipherHandle: ...

    @abc.abstractmethod
    def mod_switch(self, a: CipherHandle) -> CipherHandle: ...

    # -- introspection ----------------------------------------------------------
    @abc.abstractmethod
    def scale_bits(self, handle: CipherHandle) -> float:
        """Current scale (bits) of a ciphertext handle."""

    @abc.abstractmethod
    def level(self, handle: CipherHandle) -> int:
        """Number of coefficient-modulus primes consumed by the handle."""

    def check_input(self, name: str, handle: CipherHandle, scale_bits: float) -> None:
        """Refuse (``ParameterError``), before any op, an input ciphertext the
        compilation did not ask for: it encrypts every input at level 0, at its
        scale.  A backend whose handles carry more checks that too."""
        level, bits = self.level(handle), self.scale_bits(handle)
        if level != 0:
            raise ParameterError(
                f"input {name!r} is at level {level}; the compilation encrypts inputs at level 0"
            )
        if abs(bits - float(scale_bits)) > 1e-6:  # the wire carries the scale exactly
            raise ParameterError(
                f"input {name!r} has scale 2^{bits:g}; the compilation encrypts it at 2^{scale_bits:g}"
            )

    def check_rotation_keys(self, rotation_steps: Sequence[int]) -> None:
        """Refuse (``ParameterError``), at attach, evaluation keys that cannot
        make every compiled rotation.  A backend without key material accepts any."""

    def release(self, handle: CipherHandle) -> None:
        """Hint that ``handle`` will no longer be used (memory reuse).

        Releasing a handle again is a no-op: live-ciphertext accounting counts
        each handle once.
        """

    # -- client/server split -----------------------------------------------------
    # These hooks realize the paper's asymmetric deployment model: the client
    # generates keys and derives an *evaluation context* — public and
    # evaluation (relinearization/Galois) key material only — which is what a
    # server needs to compute on ciphertexts it cannot read.  The cipher codec
    # turns backend-specific handles into JSON-compatible dictionaries so
    # encrypted inputs and outputs can cross a process or network boundary.

    def evaluation_context(self) -> "BackendContext":
        """Derive a context holding only public/evaluation key material.

        The derived context can encode plaintext operands and perform every
        homomorphic evaluation operation, but ``has_secret_key`` is ``False``
        and :meth:`decrypt` raises.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support evaluation-only contexts"
        )

    def export_evaluation_keys(self) -> Dict[str, Any]:
        """Serialize the public/evaluation key material to a JSON-able dict.

        The blob never contains the secret key; feed it to
        :meth:`HomomorphicBackend.create_evaluation_context` on the server
        side to rebuild an evaluation context for this client.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support key export"
        )

    def encode_cipher(self, handle: CipherHandle) -> Dict[str, Any]:
        """Serialize one ciphertext handle to a JSON-able dict."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support ciphertext serialization"
        )

    def decode_cipher(self, data: Dict[str, Any]) -> CipherHandle:
        """Inverse of :meth:`encode_cipher`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support ciphertext serialization"
        )


class HomomorphicBackend(abc.ABC):
    """Factory for :class:`BackendContext` objects."""

    name: str = "abstract"

    @abc.abstractmethod
    def create_context(self, parameters: EncryptionParameters) -> BackendContext:
        """Build an execution context for the given encryption parameters."""

    def create_evaluation_context(
        self, parameters: EncryptionParameters, evaluation_keys: Dict[str, Any]
    ) -> BackendContext:
        """Rebuild an evaluation-only context from exported key material.

        ``evaluation_keys`` is the dict produced by
        :meth:`BackendContext.export_evaluation_keys` on the client side.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support imported evaluation contexts"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


def replicate_to_slots(values: Sequence[float], slot_count: int) -> np.ndarray:
    """Replicate a vector to fill all slots (Section 3's input replication).

    The input length must be a power of two dividing ``slot_count``; scalars
    are broadcast to every slot.
    """
    array = np.atleast_1d(np.asarray(values, dtype=np.float64)).ravel()
    if array.size == slot_count:
        return array.copy()
    if array.size == 1:
        return np.full(slot_count, float(array[0]))
    if slot_count % array.size != 0:
        raise ValueError(
            f"input of size {array.size} does not divide the slot count {slot_count}"
        )
    return np.tile(array, slot_count // array.size)
