"""The server half of the paper's deployment model: evaluate, never decrypt.

A :class:`ServerRuntime` evaluates a compiled program on ciphertext bundles.
It is constructed from the :class:`~repro.api.CompiledProgram`
alone — no key material — and accepts per-client *evaluation
contexts* (public + relinearization + Galois keys) either as live objects
derived by :meth:`ClientKit.evaluation_context` or as exported key blobs that
crossed a network boundary.  By construction it can never decrypt: contexts
holding a secret key are refused outright.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

from ..backend.hisa import BackendContext, HomomorphicBackend
from ..core.compiler import CompilationResult
from ..core.executor import EvaluationEngine
from ..errors import ExecutionError
from .bundles import (
    CipherBundle,
    EncryptedOutputs,
    bundle_from_wire,
    outputs_to_wire,
)


class ServerRuntime:
    """Blind evaluator of one compiled program over ciphertext bundles."""

    def __init__(
        self,
        compiled: CompilationResult,
        backend: Optional[HomomorphicBackend] = None,
        threads: int = 1,
    ) -> None:
        self.compiled = compiled
        self.engine = EvaluationEngine(compiled, backend=backend, threads=threads)
        self.backend = self.engine.backend
        self._clients: Dict[str, BackendContext] = {}
        #: Per-client evaluation locks: backend contexts (RNG state, op
        #: counters, real key material) are not safe for concurrent
        #: evaluation, and a threaded transport may deliver two bundles from
        #: one client at once.
        self._client_locks: Dict[str, threading.Lock] = {}
        self._lock = threading.Lock()

    # -- sessions ----------------------------------------------------------------
    @staticmethod
    def _check_no_secret(context: BackendContext) -> BackendContext:
        if getattr(context, "has_secret_key", True):
            raise ExecutionError(
                "ServerRuntime refuses contexts holding a secret key; pass "
                "ClientKit.evaluation_context() (or an exported key blob) so the "
                "server provably cannot decrypt"
            )
        return context

    def attach_client(self, client_id: str, keys: Any) -> BackendContext:
        """Register a client's evaluation key material under ``client_id``.

        ``keys`` is either a live evaluation context (from
        :meth:`ClientKit.evaluation_context`) or the JSON-able blob from
        :meth:`ClientKit.export_evaluation_keys`.  Returns the installed
        context.
        """
        if isinstance(keys, BackendContext):
            context = self._check_no_secret(keys)
        else:
            context = self._check_no_secret(
                self.backend.create_evaluation_context(self.compiled.parameters, keys)
            )
        with self._lock:
            self._clients[str(client_id)] = context
            self._client_locks.setdefault(str(client_id), threading.Lock())
        return context

    def detach_client(self, client_id: str) -> bool:
        """Forget a client's evaluation context; returns whether it existed."""
        with self._lock:
            self._client_locks.pop(str(client_id), None)
            return self._clients.pop(str(client_id), None) is not None

    def _evaluation_lock(self, client_id: str) -> threading.Lock:
        with self._lock:
            return self._client_locks.setdefault(str(client_id), threading.Lock())

    def client_context(self, client_id: str) -> BackendContext:
        """The evaluation context a client attached (raises if absent)."""
        with self._lock:
            context = self._clients.get(str(client_id))
        if context is None:
            raise ExecutionError(
                f"no evaluation keys attached for client {client_id!r}; call "
                "attach_client() first"
            )
        return context

    # -- evaluation --------------------------------------------------------------
    def evaluate(
        self, bundle: CipherBundle, context: Optional[BackendContext] = None
    ) -> EncryptedOutputs:
        """Evaluate one bundle; returns output ciphertexts (still encrypted).

        The bundle's ``program_signature`` must match this runtime's compiled
        program, and the context (explicit, or resolved from the bundle's
        ``client_id``) must hold no secret key.
        """
        if bundle.program_signature != self.compiled.signature:
            raise ExecutionError(
                "bundle was encrypted for a different compilation "
                f"({bundle.program_signature[:12]}... vs "
                f"{self.compiled.signature[:12]}...)"
            )
        if context is None:
            context = self.client_context(bundle.client_id)
        else:
            context = self._check_no_secret(context)
        start = time.perf_counter()
        with self._evaluation_lock(bundle.client_id):
            # Inputs are not retired: the bundle's handles belong to the
            # client, which may re-submit or re-serialize them after this call.
            handles = self.engine.evaluate(context, bundle.ciphertexts, bundle.plain)
        elapsed = time.perf_counter() - start
        return EncryptedOutputs(
            program_signature=self.compiled.signature,
            ciphertexts=handles,
            evaluate_seconds=elapsed,
        )

    def evaluate_wire(
        self, data: Dict[str, Any], client_id: Optional[str] = None
    ) -> Dict[str, Any]:
        """Wire-to-wire evaluation: decode a bundle dict, evaluate, encode outputs.

        This is the call a transport layer makes: everything in and out is a
        JSON-compatible dictionary, decoded and encoded with the *client's*
        evaluation context.
        """
        resolved = str(client_id) if client_id is not None else str(
            data.get("client_id", "default")
        )
        context = self.client_context(resolved)
        bundle = bundle_from_wire(data, context)
        bundle.client_id = resolved
        outputs = self.evaluate(bundle, context=context)
        wire = outputs_to_wire(outputs, context)
        # Both the decoded inputs and the encoded outputs are server-owned
        # copies on this path; release them so the context's live-ciphertext
        # accounting stays bounded across many requests.  A pass-through
        # output can alias an input handle — release each object once.
        seen = set()
        for handle in (*outputs.ciphertexts.values(), *bundle.ciphertexts.values()):
            if id(handle) not in seen:
                seen.add(id(handle))
                context.release(handle)
        return wire

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ServerRuntime program={self.compiled.name!r} "
            f"clients={len(self._clients)}>"
        )
