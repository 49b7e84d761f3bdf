"""Ciphertext bundles: the data that crosses the client/server boundary.

A :class:`CipherBundle` is what a client ships to a server — backend
ciphertext handles for every encrypted input, plain vectors for the program's
unencrypted inputs, and the compilation signature that routes the bundle to
the right compiled program.  An :class:`EncryptedOutputs` is the server's
reply: output ciphertext handles the client decrypts with its own keys.

Both carry *handles* in memory; :func:`bundle_to_wire` /
:func:`bundle_from_wire` and :func:`outputs_to_wire` / :func:`outputs_from_wire`
convert them to JSON-compatible dictionaries using the backend context's
cipher codec, so the same bundle works in-process and over the TCP transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

from ..errors import SerializationError


@dataclass
class CipherBundle:
    """Encrypted inputs for one request, as produced by ``ClientKit.encrypt_inputs``.

    Attributes
    ----------
    program_signature:
        Content hash of the compilation this bundle was encrypted for; a
        server refuses to evaluate a bundle against a different compilation.
    vec_size:
        Logical vector size of the program (slots the client cares about).
    ciphertexts:
        Backend ciphertext handle per encrypted (Cipher) input name.
    plain:
        Plain vector per unencrypted (Vector) input name.  These travel in
        the clear by construction — the program declared them unencrypted.
    client_id:
        The client identity the server uses to resolve the session
        (evaluation keys) this bundle must be evaluated under.
    """

    program_signature: str
    vec_size: int
    ciphertexts: Dict[str, Any] = field(default_factory=dict)
    plain: Dict[str, np.ndarray] = field(default_factory=dict)
    client_id: str = "default"

    def input_names(self) -> List[str]:
        """All input names in the bundle, encrypted and plain alike."""
        return sorted(set(self.ciphertexts) | set(self.plain))


@dataclass
class EncryptedOutputs:
    """Ciphertext outputs of one server evaluation (decrypt with ClientKit)."""

    program_signature: str
    ciphertexts: Dict[str, Any] = field(default_factory=dict)
    evaluate_seconds: float = 0.0

    def output_names(self) -> List[str]:
        """The encrypted output names."""
        return sorted(self.ciphertexts)


# ---------------------------------------------------------------------------
# Wire conversion.  ``context`` is any backend context implementing the cipher
# codec (encode_cipher / decode_cipher); the client uses its full context, the
# server its evaluation-only context.
# ---------------------------------------------------------------------------

def bundle_to_wire(bundle: CipherBundle, context: Any) -> Dict[str, Any]:
    """Serialize a bundle into a JSON-compatible dictionary."""
    return {
        "program_signature": bundle.program_signature,
        "vec_size": int(bundle.vec_size),
        "ciphertexts": {
            name: context.encode_cipher(handle)
            for name, handle in bundle.ciphertexts.items()
        },
        "plain": {
            name: [float(v) for v in np.atleast_1d(np.asarray(value)).ravel()]
            for name, value in bundle.plain.items()
        },
        "client_id": bundle.client_id,
    }


def bundle_from_wire(data: Dict[str, Any], context: Any) -> CipherBundle:
    """Inverse of :func:`bundle_to_wire`."""
    if not isinstance(data, dict) or "program_signature" not in data:
        raise SerializationError("malformed cipher bundle: missing program_signature")
    ciphertexts: Dict[str, Any] = {}
    try:
        for name, cipher in data.get("ciphertexts", {}).items():
            ciphertexts[str(name)] = context.decode_cipher(cipher)
        return CipherBundle(
            program_signature=str(data["program_signature"]),
            vec_size=int(data["vec_size"]),
            ciphertexts=ciphertexts,
            plain={
                str(name): np.asarray(values, dtype=np.float64)
                for name, values in data.get("plain", {}).items()
            },
            client_id=str(data.get("client_id", "default")),
        )
    except Exception as exc:
        # The caller never sees a half-decoded bundle, so it could not
        # release the handles decoded before the failure.
        for handle in ciphertexts.values():
            context.release(handle)
        if isinstance(exc, (KeyError, TypeError, ValueError)):
            raise SerializationError(f"malformed cipher bundle: {exc}") from exc
        raise


def outputs_to_wire(outputs: EncryptedOutputs, context: Any) -> Dict[str, Any]:
    """Serialize encrypted outputs into a JSON-compatible dictionary."""
    return {
        "program_signature": outputs.program_signature,
        "ciphertexts": {
            name: context.encode_cipher(handle)
            for name, handle in outputs.ciphertexts.items()
        },
        "evaluate_seconds": float(outputs.evaluate_seconds),
    }


def outputs_from_wire(data: Dict[str, Any], context: Any) -> EncryptedOutputs:
    """Inverse of :func:`outputs_to_wire`."""
    if not isinstance(data, dict) or "ciphertexts" not in data:
        raise SerializationError("malformed encrypted outputs: missing ciphertexts")
    try:
        return EncryptedOutputs(
            program_signature=str(data.get("program_signature", "")),
            ciphertexts={
                str(name): context.decode_cipher(cipher)
                for name, cipher in data["ciphertexts"].items()
            },
            evaluate_seconds=float(data.get("evaluate_seconds", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed encrypted outputs: {exc}") from exc
