"""The client half of the paper's deployment model: keys, encrypt, decrypt.

A :class:`ClientKit` owns everything the server must never see — the backend
context with its secret key — and performs the client-side duties around one
compiled program: encrypting inputs into :class:`~repro.api.bundles.CipherBundle`
objects, decrypting the server's :class:`~repro.api.bundles.EncryptedOutputs`,
and exporting the public/evaluation key material a server needs to compute on
the client's ciphertexts.

The kit can also pack several small requests into the lanes of a single
bundle (client-side slot batching) so one homomorphic evaluation answers many
requests, mirroring what the serving layer's :class:`~repro.serving.SlotBatcher`
does for plaintext inputs — but with the packing done *before* encryption,
where the data is still visible to its owner.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

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
    extra_rotation_steps:
        Additional Galois key steps to generate beyond the compiled program's
        own — the union is computed once, so a step shared between variants
        yields exactly one key.  Use :meth:`for_programs` to build a kit whose
        keys cover several compiled variants (e.g. solo + lane-lowered) of
        one program.
    """

    def __init__(
        self,
        compiled: CompilationResult,
        backend: Optional[HomomorphicBackend] = None,
        client_id: str = "default",
        extra_rotation_steps: Optional[Sequence[int]] = None,
    ) -> None:
        self._set_up(compiled, backend, client_id, extra_rotation_steps, compiled.relinearizes)

    def _set_up(self, compiled, backend, client_id, extra_rotation_steps, relinearize: bool) -> None:
        """Generate the keys: Galois keys for the merged steps, and a
        relinearization key only when ``relinearize`` (some program uses it)."""
        if backend is None:
            from ..backend.mock_backend import MockBackend

            backend = MockBackend()
        self.compiled = compiled
        self.backend = backend
        self.client_id = str(client_id)
        parameters = self.compiled.parameters
        if extra_rotation_steps:
            from dataclasses import replace

            from ..core.analysis.rotations import merge_rotation_steps

            merged = merge_rotation_steps(
                parameters.rotation_steps, extra_rotation_steps
            )
            if merged != sorted(set(parameters.rotation_steps)):
                parameters = replace(parameters, rotation_steps=merged)
        self.rotation_steps: List[int] = list(parameters.rotation_steps)
        self.context: BackendContext = backend.create_context(parameters)
        self.context.generate_keys(relinearize=relinearize)
        # The engine's encrypt_inputs / decrypt_outputs are the single
        # implementation of the key owner's duties (shared with the compat
        # Executor and the server's plaintext path): which inputs are live,
        # which are Cipher, and at what scale each must be encrypted.
        self._engine = EvaluationEngine(compiled, backend=backend)

    @classmethod
    def for_programs(
        cls,
        compilations: Sequence[CompilationResult],
        backend: Optional[HomomorphicBackend] = None,
        client_id: str = "default",
    ) -> "ClientKit":
        """A kit whose Galois keys cover several compiled variants at once.

        A client talking to a server that evaluates both the solo and the
        lane-lowered variant of its program must upload keys for both step
        sets — but generating them per variant would duplicate every shared
        step.  This constructor takes the *union* of the variants' rotation
        steps (each Galois key generated and exported exactly once) and
        encrypts against the first compilation.  All variants must agree on
        the encryption parameters (same polynomial degree and modulus chain);
        variants whose parameters differ need their own kit.
        """
        if not compilations:
            raise ExecutionError("for_programs needs at least one compilation")
        first = compilations[0].parameters
        for other in compilations[1:]:
            params = other.parameters
            if (
                params.poly_modulus_degree != first.poly_modulus_degree
                or list(params.coeff_modulus_bits) != list(first.coeff_modulus_bits)
            ):
                raise ExecutionError(
                    "cannot share keys across variants with different "
                    "encryption parameters: "
                    f"(N={first.poly_modulus_degree}, "
                    f"chain={list(first.coeff_modulus_bits)}) vs "
                    f"(N={params.poly_modulus_degree}, "
                    f"chain={list(params.coeff_modulus_bits)})"
                )
        from ..core.analysis.rotations import merge_rotation_steps

        merged = merge_rotation_steps(
            *(c.parameters.rotation_steps for c in compilations)
        )
        kit = cls.__new__(cls)
        relinearize = any(c.relinearizes for c in compilations)
        kit._set_up(compilations[0], backend, client_id, merged, relinearize)
        return kit

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

    # -- client-side slot batching -------------------------------------------------
    @property
    def lane_width(self) -> Optional[int]:
        """The compiled program's lane width (None when not lane-lowered).

        When a server registered the program with a pinned ``lane_width``,
        compiling with the same options makes this match the width the server
        reports from ``create_session`` — the alignment that lets
        :meth:`encrypt_packed` bundles batch on the encrypted path.
        """
        return self.compiled.lane_width

    def encrypt_packed(
        self, requests: Sequence[Dict[str, Any]]
    ) -> Tuple[CipherBundle, Any]:
        """Pack several requests into one bundle (one evaluation serves all).

        Packing is sound when the compiled program is slotwise *or* was
        compiled with a ``lane_width`` (lane-lowered rotations); in the
        latter case the lanes are exactly the compiled width.  Returns
        ``(bundle, plan)``; decrypt the server's reply with
        :meth:`decrypt_packed` and the same plan.  Raises
        :class:`~repro.errors.ExecutionError` when the requests do not fit —
        fall back to one bundle per request in that case.
        """
        from ..serving.batching import SlotBatcher

        plan = SlotBatcher().plan(self.compiled, list(requests))
        if plan is None:
            raise ExecutionError(
                "requests cannot be slot-packed for this program (neither "
                "slotwise nor compiled with a lane_width, or they do not fit "
                "the lanes); encrypt them individually"
            )
        packed = SlotBatcher().pack(plan, list(requests))
        bundle = self.encrypt_inputs(packed)
        return bundle, plan

    def decrypt_packed(
        self, plan: Any, outputs: Any
    ) -> List[Dict[str, np.ndarray]]:
        """Decrypt and de-multiplex a packed evaluation back into per-request results."""
        from ..serving.batching import SlotBatcher

        decrypted = self.decrypt_outputs(outputs)
        return SlotBatcher().unpack(plan, decrypted)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ClientKit client_id={self.client_id!r} program={self.compiled.name!r} "
            f"backend={getattr(self.backend, 'name', '?')!r}>"
        )
