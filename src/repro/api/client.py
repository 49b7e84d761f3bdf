"""The client half of the paper's deployment model: keys, encrypt, decrypt.

A :class:`ClientKit` owns everything the server must never see — the backend
context with its secret key — and performs the client-side duties around one
compiled program: encrypting inputs into :class:`~repro.api.bundles.CipherBundle`
objects, decrypting the server's :class:`~repro.api.bundles.EncryptedOutputs`,
and exporting the public/evaluation key material a server needs to compute on
the client's ciphertexts.

A client that wants one evaluation to answer several small requests packs
them itself, before encryption, where the data is still visible to its owner:
``SlotBatcher().plan`` / ``pack`` the requests, :meth:`ClientKit.encrypt_inputs`
the packed inputs, and ``SlotBatcher().unpack`` the decrypted reply.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from ..backend.hisa import BackendContext, HomomorphicBackend
from ..core.compiler import CompilationResult
from ..core.executor import EvaluationEngine
from ..errors import ExecutionError
from .bundles import (
    CipherBundle,
    EncryptedOutputs,
    bundle_to_wire,
    outputs_from_wire,
)


class ClientKit:
    """Key owner and encrypt/decrypt endpoint for one compiled program.

    Parameters
    ----------
    compiled:
        The :class:`~repro.api.CompiledProgram` the kit encrypts for;
        encryption scales and levels are read from it.
    backend:
        Homomorphic backend; defaults to the mock simulator.
    client_id:
        Identity stamped on every bundle; servers key sessions by it.
    """

    def __init__(
        self,
        compiled: CompilationResult,
        backend: Optional[HomomorphicBackend] = None,
        client_id: str = "default",
    ) -> None:
        if backend is None:
            from ..backend.mock_backend import MockBackend

            backend = MockBackend()
        self.compiled = compiled
        self.backend = backend
        self.client_id = str(client_id)
        self.context: BackendContext = backend.create_context(compiled.parameters)
        self.context.generate_keys(relinearize=compiled.relinearizes)
        # The engine's encrypt_inputs / decrypt_outputs are the single
        # implementation of the key owner's duties (shared with the compat
        # Executor and the server's plaintext path): which inputs are live,
        # which are Cipher, and at what scale each must be encrypted.
        self._engine = EvaluationEngine(compiled, backend=backend)

    # -- key material ------------------------------------------------------------
    def evaluation_context(self) -> BackendContext:
        """A context with public/evaluation keys only — hand this to a server."""
        return self.context.evaluation_context()

    def export_evaluation_keys(self) -> Dict[str, Any]:
        """JSON-able public/evaluation key blob (never contains the secret key)."""
        return self.context.export_evaluation_keys()

    # -- encryption --------------------------------------------------------------
    def encrypt_inputs(self, inputs: Dict[str, Any]) -> CipherBundle:
        """Encrypt ``inputs`` into a bundle a server can evaluate blindly.

        Cipher inputs are encrypted at the scale the compiled program
        requires; Vector inputs (declared unencrypted by the program) travel
        as plain vectors.  A missing live input raises; extra names —
        including declared-but-dead inputs the compiler pruned, which the
        serialization layer may drop entirely — are ignored, matching the
        compat :class:`~repro.core.Executor`.
        """
        ciphertexts, plain = self._engine.encrypt_inputs(self.context, inputs)
        return CipherBundle(
            program_signature=self.compiled.signature,
            vec_size=self.compiled.vec_size,
            ciphertexts=ciphertexts,
            plain=plain,
            client_id=self.client_id,
        )

    # -- decryption --------------------------------------------------------------
    def decrypt_outputs(self, outputs: Any) -> Dict[str, np.ndarray]:
        """Decrypt an :class:`EncryptedOutputs` (or name -> handle dict)."""
        handles = (
            outputs.ciphertexts if isinstance(outputs, EncryptedOutputs) else outputs
        )
        if isinstance(outputs, EncryptedOutputs) and outputs.program_signature:
            if outputs.program_signature != self.compiled.signature:
                raise ExecutionError(
                    "encrypted outputs come from a different compilation "
                    f"({outputs.program_signature[:12]}... vs "
                    f"{self.compiled.signature[:12]}...)"
                )
        return self._engine.decrypt_outputs(self.context, handles)

    # -- wire helpers ------------------------------------------------------------
    def bundle_to_wire(self, bundle: CipherBundle) -> Dict[str, Any]:
        """Serialize a bundle with this client's cipher codec."""
        return bundle_to_wire(bundle, self.context)

    def outputs_from_wire(self, data: Dict[str, Any]) -> EncryptedOutputs:
        """Deserialize the server's encrypted outputs with this client's codec."""
        return outputs_from_wire(data, self.context)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ClientKit client_id={self.client_id!r} program={self.compiled.name!r} "
            f"backend={getattr(self.backend, 'name', '?')!r}>"
        )
