"""The EVA serving front door: registered programs, cached sessions, batching.

:class:`EvaServer` is the in-process serving subsystem.  Programs are
registered once under a name; clients then submit named requests and receive
futures.  Per request the server

1. resolves the program's cached compilation (:class:`ProgramRegistry` — the
   signature is precomputed at registration, so the warm path never hashes),
2. resolves the client's cached backend context and keys
   (:class:`SessionManager`),
3. packs concurrently queued requests of the same (compilation signature,
   client) group into the unused CKKS slots (:class:`SlotBatcher`) — jobs
   group by *signature*, not program name, so identical programs registered
   under different names share batches — and
4. runs each *unit of evaluation* — a packed plan answering all its jobs, or
   one job — through the one spine in :meth:`EvaServer._handle_batch`.

A plaintext request is "encrypt under server-held keys, then the encrypted
path": both job kinds obtain ciphertext inputs (the server's own encryptions,
or the client's bundle), share the one
:meth:`~repro.core.EvaluationEngine.evaluate` call site, and differ only in
how the output handles become a reply.  Every handle the server acquires for
a request — its own encryptions, wire-decoded copies, outputs it decrypted —
is released before the request's reply or error is produced; a client's live
bundle and outputs handed to a transport are never the server's to release.

Rotation-bearing programs batch too: when a batch of narrow requests arrives
for a program that is not slotwise, the server resolves (compiling at most
once, via the registry's variant index) a *lane-lowered* compilation of the
same source at the batch's lane width and executes that instead.  A lane
variant computes, per lane, exactly what the base program computes on a
replicated narrow input, so batched and solo answers agree.  Operators can
also pin a lane width at registration (``register(name, program,
options=CompilerOptions(lane_width=w))``), which bakes it into the program's
signature — the form clients compiling for the encrypted path must match.

The result is the amortized serving path the paper's deployment story
implies: compile once, keygen once per client, and pay one homomorphic
evaluation for up to ``vec_size / lane`` requests.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from ..backend.hisa import BackendContext, HomomorphicBackend
from ..core.analysis.parameters import modup_rows
from ..core.compiler import (
    CompilationResult,
    CompilerOptions,
    frontend_graph,
    program_signature,
)
from ..core.executor import EvaluationEngine
from ..core.ir import Program
from ..errors import EncodingError, EvaError, ParameterError, ServingError, UnknownProgramError
from .artifacts import ArtifactCache
from .batching import BatchInfo, BatchPlan, SlotBatcher, pow2_ceil, request_width
from .jobs import Job, JobEngine
from .quotas import FairnessPolicy
from .registry import ProgramRegistry
from .sessions import Session, SessionManager
from .store import SessionStore
from .telemetry import Telemetry, absorb_summary


@dataclass
class ProgramSpec:
    """A named program as registered with the server."""

    name: str
    program: Program
    options: Optional[CompilerOptions]
    input_scales: Optional[Dict[str, float]]
    output_scales: Optional[Dict[str, float]]
    signature: str


@dataclass
class ServeRequest:
    """Payload of one queued job.

    ``name`` is the program name the request was submitted under; jobs group
    by compilation *signature*, so one batch may mix names that resolve to
    the same compiled program.
    """

    inputs: Dict[str, Any]
    output_size: Optional[int] = None
    name: str = ""


def _admitted_inputs(inputs: Dict[str, Any]) -> Dict[str, np.ndarray]:
    """Each input value as one float64 vector, or a typed admission error."""
    vectors: Dict[str, np.ndarray] = {}
    for key, value in inputs.items():
        try:
            vector = np.atleast_1d(np.asarray(value, dtype=np.float64)).ravel()
        except (TypeError, ValueError):
            raise ServingError(
                f"input {key!r} is not numeric ({type(value).__name__})"
            ) from None
        if vector.size == 0:
            raise ServingError(f"input {key!r} is empty")
        if not np.isfinite(vector).all():
            raise EncodingError(
                f"cannot encode non-finite values (NaN or infinity) in input {key!r}"
            )
        vectors[key] = vector
    return vectors


@dataclass
class EncryptedServeRequest:
    """Payload of one queued pre-encrypted job.

    ``bundle`` is either a live :class:`~repro.api.bundles.CipherBundle` or
    its wire dictionary (decoded lazily with the session's context on the
    worker side).
    """

    bundle: Any
    wire: bool = False
    name: str = ""


@dataclass
class EncryptedServeResponse:
    """Ciphertext outputs plus the serving metadata of one encrypted request.

    ``outputs`` is an :class:`~repro.api.bundles.EncryptedOutputs`; the server
    cannot decrypt it — only the submitting client can.
    """

    outputs: Any
    program: str
    client_id: str
    cached_program: bool = False
    queue_seconds: float = 0.0
    execute_seconds: float = 0.0
    #: The session's evaluation context the outputs were produced under, so a
    #: transport can encode the reply without re-resolving the session (which
    #: may have been evicted between evaluation and encoding).
    context: Optional[BackendContext] = None
    #: The output handles :meth:`release` frees, each once.  A pass-through
    #: output of a live bundle is the client's input handle, so it is not here.
    owned: List[Any] = field(default_factory=list)

    def to_wire(self, context: Optional[BackendContext] = None) -> Dict[str, Any]:
        """Encode the response for the wire (ciphertext outputs as blobs)."""
        from ..api.bundles import outputs_to_wire

        return outputs_to_wire(self.outputs, context or self.context)

    def release(self) -> None:
        """Release the server's output handles (after they have been encoded
        or decrypted); a live bundle's own handles stay the client's."""
        for handle in self.owned:
            self.context.release(handle)

    def stats_dict(self) -> Dict[str, object]:
        """Wire/stats-friendly response metadata (no payloads)."""
        return {
            "program": self.program,
            "client_id": self.client_id,
            "encrypted": True,
            "cached_program": self.cached_program,
            "queue_seconds": round(self.queue_seconds, 6),
            "execute_seconds": round(self.execute_seconds, 6),
        }


@dataclass
class ServeResponse:
    """Decrypted outputs plus the serving metadata of one request."""

    outputs: Dict[str, np.ndarray]
    program: str
    client_id: str
    batch_size: int = 1
    cached_program: bool = False
    cached_session: bool = False
    queue_seconds: float = 0.0
    execute_seconds: float = 0.0
    #: Lane width of the compilation that answered (None when the request ran
    #: against the base, non-lane-lowered compilation).
    lane_width: Optional[int] = None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.outputs[name]

    def stats_dict(self) -> Dict[str, object]:
        """Wire/stats-friendly response metadata (no payloads)."""
        return {
            "program": self.program,
            "client_id": self.client_id,
            "batch_size": self.batch_size,
            "cached_program": self.cached_program,
            "cached_session": self.cached_session,
            "lane_width": self.lane_width,
            "queue_seconds": round(self.queue_seconds, 6),
            "execute_seconds": round(self.execute_seconds, 6),
        }


@dataclass
class _Served:
    """What the server caches per compilation signature, built on a worker."""

    engine: EvaluationEngine
    #: :meth:`SlotBatcher.inspect` facts; also carries the static
    #: rotation/key-switch counts the telemetry counters are fed from.
    info: BatchInfo

    @cached_property
    def execute_seconds(self) -> float:
        """Modeled solo-execution seconds (cost model over the compiled
        graph), the cold-start execute estimate of the engine's deadline
        admission; modeled when the program's second request is admitted, so
        a server that answers one request never walks the graph for it."""
        from ..backend.cost_model import DEFAULT_COST_MODEL

        compilation = self.engine.compilation
        params = compilation.parameters
        return DEFAULT_COST_MODEL.program_seconds(
            compilation.program,
            params.poly_modulus_degree,
            max(len(params.data_bits), 1),
        )


class EvaServer:
    """In-process encrypted-computation server over a homomorphic backend."""

    def __init__(
        self,
        backend: Optional[HomomorphicBackend] = None,
        workers: int = 2,
        max_batch: int = 8,
        batch_window: float = 0.0,
        executor_threads: int = 1,
        session_store: Optional[SessionStore] = None,
        artifact_cache: Optional[ArtifactCache] = None,
        fairness: Optional[FairnessPolicy] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if backend is None:
            from ..backend.mock_backend import MockBackend

            backend = MockBackend()
        self.backend = backend
        #: The unified telemetry plane (metrics registry + trace/slow rings).
        #: Every server owns one so metrics exposition is always available;
        #: transports share it to record their own spans.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        #: Optional cross-process compiled-artifact cache: a registry miss
        #: loads what a sibling shard already compiled instead of recompiling,
        #: and fresh compilations are published back for the fleet.
        self.artifact_cache = artifact_cache
        self.registry = ProgramRegistry(artifacts=artifact_cache, telemetry=self.telemetry)
        self.sessions = SessionManager(backend, telemetry=self.telemetry)
        #: Optional disk persistence of client key blobs: sessions created
        #: through :meth:`create_session` are saved, and an unknown client's
        #: encrypted request triggers a lazy restore — which is how sessions
        #: survive server restarts and (in a cluster) shard failures.
        self.session_store = session_store
        if session_store is not None and session_store.ttl is not None:
            self.telemetry.set_gauge("serving.store.ttl", session_store.ttl)
        self.batcher = SlotBatcher()
        self.executor_threads = max(int(executor_threads), 1)
        self._programs: Dict[str, ProgramSpec] = {}
        #: The one per-signature cache (engine, batch facts, cost estimate),
        #: kept bounded alongside the registry by :meth:`_served_for`.
        self._served: Dict[str, _Served] = {}
        #: (base signature, lane width) pairs whose variant compilation
        #: failed; remembered so a failing width is not recompiled per batch.
        self._lane_failures: Set[Tuple[str, int]] = set()
        self._lock = threading.Lock()
        self.engine = JobEngine(
            self._handle_batch,
            workers=workers,
            max_batch=max_batch,
            batch_window=batch_window,
            fairness=fairness,
            telemetry=self.telemetry,
        )

    # -- registration ------------------------------------------------------------
    def register(
        self,
        name: str,
        program: Any,
        options: Optional[CompilerOptions] = None,
        input_scales: Optional[Dict[str, float]] = None,
        output_scales: Optional[Dict[str, float]] = None,
    ) -> ProgramSpec:
        """Register a frontend program (or its graph) under ``name``.

        Accepts either a :class:`~repro.core.ir.Program` or a PyEVA
        :class:`~repro.frontend.EvaProgram` (its ``graph`` is used).
        Registration is cheap — compilation happens lazily on first request
        and is shared through the registry afterwards.

        ``CompilerOptions(lane_width=w)`` pins the compilation to that lane
        width (it is part of the signature): every request — including
        pre-encrypted bundles, which a client must compile with the same
        options — is then served by the lane-lowered program.  Without it,
        the server still lane-batches plaintext requests by resolving
        variants on demand per batch.

        ``program`` may also be a finished compilation
        (:class:`~repro.api.CompiledProgram`), which carries its own options,
        scales and lane width: its signature names the program and the
        registry is seeded with it, so nothing is hashed or compiled again.
        Its ``source`` serves lane variants and a recompile after eviction.
        """
        if isinstance(program, CompilationResult):
            if program.source is None:
                raise ServingError(
                    f"cannot register {name!r}: the compilation carries no "
                    "source program to recompile from"
                )
            if any(v is not None for v in (options, input_scales, output_scales)):
                raise ServingError(
                    f"cannot register {name!r}: a compilation carries its own "
                    "options and scales"
                )
            spec = ProgramSpec(
                name, program.source, program.options,
                program.input_scales, program.output_scales, program.signature,
            )
            self.registry.insert(spec.signature, program)
        else:
            graph = frontend_graph(program)
            signature = program_signature(graph, options, input_scales, output_scales)
            spec = ProgramSpec(name, graph, options, input_scales, output_scales, signature)
        with self._lock:
            self._programs[name] = spec
        return spec

    def programs(self) -> List[str]:
        """Registered program names, sorted."""
        with self._lock:
            return sorted(self._programs)

    # -- request path ------------------------------------------------------------
    def submit(
        self,
        name: str,
        inputs: Dict[str, Any],
        client_id: str = "default",
        output_size: Optional[int] = None,
        **admission: Any,
    ) -> "Future[ServeResponse]":
        """Queue one request; the future resolves to a :class:`ServeResponse`.

        ``admission`` goes to :meth:`JobEngine.submit
        <repro.serving.jobs.JobEngine.submit>` unchanged, which names its
        keywords (a misspelt one is a ``TypeError`` there): ``timeout`` bounds
        the wait for queue space, ``trace_id`` labels the spans, and
        ``deadline_ms`` / ``slo_class`` (``tight`` / ``standard`` /
        ``relaxed``) attach SLO semantics — an infeasible deadline is rejected
        at admission with :class:`~repro.errors.DeadlineInfeasibleError` and
        the class shapes the batch-vs-solo decision downstream.  A request
        that carries neither is class ``standard`` with no deadline.
        """
        spec = self._lookup(name)
        if output_size is not None:
            # Reject here, at admission: a bad value surfacing inside the
            # worker would fail co-batched requests along with this one.
            try:
                output_size = int(output_size)
            except (TypeError, ValueError):
                raise ServingError(
                    f"output_size must be a positive integer, got {output_size!r}"
                ) from None
            if output_size < 1:
                raise ServingError(f"output_size must be positive, got {output_size}")
        # Likewise the input values: a NaN or a string would otherwise be
        # packed into (and fail) the vector its neighbours share.
        payload = ServeRequest(
            inputs=_admitted_inputs(inputs), output_size=output_size, name=name
        )
        return self._enqueue("plain", spec, payload, client_id, **admission)

    def _lookup(self, name: str) -> ProgramSpec:
        with self._lock:
            spec = self._programs.get(name)
            if spec is None:
                raise UnknownProgramError(
                    f"no program registered under {name!r}; "
                    f"known programs: {sorted(self._programs)}"
                )
            return spec

    def _enqueue(
        self, kind: str, spec: ProgramSpec, payload: Any, client_id: str, **admission: Any
    ) -> "Future[Any]":
        """Queue one job of either kind (the one ``engine.submit`` call site).

        Jobs group by compilation signature, not name: evaluation depends only
        on the compiled graph, so identical programs registered under
        different names share batches.  Clients never mix, and neither do the
        kinds: the server can slot-pack plaintext it encrypts itself, but not
        data it cannot read — so only plaintext groups can share an
        evaluation, and only they are worth lingering for.
        """
        served = self._served.get(spec.signature)
        return self.engine.submit(
            (kind, spec.signature, str(client_id)),
            payload,
            client=str(client_id),
            program=payload.name,
            execute_estimate=served.execute_seconds if served else None,
            can_share=kind == "plain",
            **admission,
        )

    def request(
        self, name: str, inputs: Dict[str, Any], *, timeout: Optional[float] = None, **fields: Any
    ) -> ServeResponse:
        """Synchronous :meth:`submit`, with its keywords.

        ``timeout`` bounds each stage: queue admission (a full queue raises
        :class:`~repro.errors.QueueFullError` when it expires) and then the
        wait for the result.
        """
        return self.submit(name, inputs, timeout=timeout, **fields).result(timeout)

    # -- encrypted request path ----------------------------------------------------
    def create_session(
        self, name: str, client_id: str, evaluation_keys: Any
    ) -> Dict[str, object]:
        """Register a client's evaluation keys for ``name`` (client-held keys).

        ``evaluation_keys`` is either an evaluation-only
        :class:`~repro.backend.hisa.BackendContext` (in-process callers) or the
        JSON-able blob from ``ClientKit.export_evaluation_keys()`` (wire
        callers).  Once the session exists, pre-encrypted bundles from this
        client are evaluated under its keys; the server can never decrypt them.

        Sessions count against the client's fairness quota: they are the
        heaviest request type (key import + context build + persistence), so
        a server with a policy must not let them bypass admission — this is
        the shot at 429 for transports that call straight into the server.
        """
        self.engine.admit(str(client_id))  # raises QuotaExceededError when violated
        try:
            return self._create_session(name, client_id, evaluation_keys)
        finally:
            self.engine.ledger.release(str(client_id))

    def _create_session(
        self, name: str, client_id: str, evaluation_keys: Any
    ) -> Dict[str, object]:
        spec = self._lookup(name)
        compilation = self._compile(spec)
        if isinstance(evaluation_keys, BackendContext):
            context = evaluation_keys
        else:
            context = self.backend.create_evaluation_context(
                compilation.parameters, evaluation_keys
            )
        try:
            self.sessions.attach(compilation, client_id, context)
        except ValueError as exc:
            raise ServingError(str(exc)) from exc
        if self.session_store is not None:
            blob = evaluation_keys if isinstance(evaluation_keys, dict) else None
            if blob is None:
                # In-process callers hand over a live context; ask it for the
                # exportable form so the session still survives a restart.
                try:
                    blob = context.export_evaluation_keys()
                except NotImplementedError:
                    blob = None
            if blob is not None:
                self.session_store.save(client_id, compilation, blob, program=name)
        self._count_session_keys(compilation, name, str(client_id))
        return {
            "program": name,
            "client_id": str(client_id),
            "signature": spec.signature,
            # The lane width the server compiled with; a client that packs
            # its requests with SlotBatcher before encrypting compiles with
            # the same CompilerOptions(lane_width=...).
            "lane_width": compilation.lane_width,
        }

    def _restore_session(
        self, compilation: CompilationResult, name: str, client_id: str
    ):
        """Rebuild a client-keyed session from the persisted key blob, if any.

        Returns the attached session, or ``None`` when there is no store, no
        record, or the blob cannot be rebuilt (a corrupt or stale record must
        degrade to the ordinary "create a session first" error, not crash the
        batch).  ``name`` is the registered program name the session's key
        footprint is counted under, as :meth:`create_session` counts it.
        """
        if self.session_store is None:
            return None
        blob = self.session_store.load(client_id, compilation)
        if blob is None:
            return None
        try:
            context = self.backend.create_evaluation_context(
                compilation.parameters, blob
            )
            session = self.sessions.attach(compilation, client_id, context)
            self._count_session_keys(compilation, name, client_id)
            return session
        except Exception as exc:
            import warnings

            warnings.warn(
                f"persisted session of client {client_id!r} could not be "
                f"restored: {type(exc).__name__}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    def submit_encrypted(
        self,
        name: str,
        bundle: Any,
        client_id: Optional[str] = None,
        **admission: Any,
    ) -> "Future[EncryptedServeResponse]":
        """Queue one pre-encrypted bundle; future resolves to ciphertext outputs.

        ``bundle`` is a :class:`~repro.api.bundles.CipherBundle` or its wire
        dictionary.  The client must have registered evaluation keys with
        :meth:`create_session` first.  Encrypted jobs are grouped per
        (program, client) like plaintext ones but never co-batched with them:
        the server cannot slot-pack data it cannot read — clients pack before
        encrypting (``SlotBatcher().pack`` then ``ClientKit.encrypt_inputs``) to
        get the same amortization.
        ``admission`` is :meth:`submit`'s.
        """
        spec = self._lookup(name)
        wire = isinstance(bundle, dict)
        if client_id is None:
            client_id = (
                bundle.get("client_id", "default")
                if wire
                else getattr(bundle, "client_id", "default")
            )
        payload = EncryptedServeRequest(bundle=bundle, wire=wire, name=name)
        return self._enqueue("encrypted", spec, payload, client_id, **admission)

    def request_encrypted(
        self, name: str, bundle: Any, *, timeout: Optional[float] = None, **fields: Any
    ) -> EncryptedServeResponse:
        """Synchronous :meth:`submit_encrypted`, with its keywords.

        ``timeout`` bounds each stage: queue admission and the result wait.
        """
        return self.submit_encrypted(name, bundle, timeout=timeout, **fields).result(timeout)

    # -- execution (worker side) -------------------------------------------------
    def _compile(
        self, spec: ProgramSpec, lane_width: Optional[int] = None
    ) -> CompilationResult:
        """The registry's compilation of ``spec`` — or, given a ``lane_width``,
        of its lane-lowered variant at that width (compiled at most once)."""
        source = (spec.program, spec.options, spec.input_scales, spec.output_scales)
        if lane_width is None:
            return self.registry.get_or_compile(*source, signature=spec.signature)
        return self.registry.get_or_compile_variant(
            *source, lane_width=lane_width, base_signature=spec.signature
        )

    def _resolve_any(
        self, names: List[str], signature: str
    ) -> Tuple[ProgramSpec, CompilationResult, bool]:
        """Resolve a batch that may mix names of one shared signature.

        All jobs in a batch share the compilation ``signature`` (it is the
        group key), but any individual name may have been unregistered — or
        re-registered as a *different* program — mid-flight; the batch
        survives as long as one of its names still resolves to the grouped
        signature.  A name pointing at a different signature must not answer
        the batch: co-batched jobs submitted under other names would silently
        execute the wrong program.
        """
        for name in dict.fromkeys(names):
            with self._lock:
                spec = self._programs.get(name)
            if spec is not None and spec.signature == signature:
                cached = signature in self.registry
                return spec, self._compile(spec), cached
        raise UnknownProgramError(
            "every program of this batch was unregistered (or re-registered "
            f"as a different program) mid-flight: {sorted(set(names))}"
        )

    def _lane_variant_for(
        self,
        spec: ProgramSpec,
        batch_info: BatchInfo,
        requests: List[ServeRequest],
    ) -> Optional[CompilationResult]:
        """A lane-lowered variant able to pack this batch, or None.

        Only rotation-bearing programs compiled *without* a pinned lane width
        qualify; the chosen width covers every request's inputs, requested
        output sizes, and the program's constants.  A width whose compilation
        fails (e.g. the longer modulus chain exceeds the security budget) is
        remembered and never retried.
        """
        if batch_info.lane_width is not None or batch_info.slotwise:
            return None
        width = batch_info.min_lane
        for request in requests:
            width = max(width, request_width(request.inputs))
            if request.output_size:
                width = max(width, pow2_ceil(int(request.output_size)))
        if width >= batch_info.vec_size:
            return None
        key = (spec.signature, width)
        with self._lock:
            if key in self._lane_failures:
                return None
        try:
            return self._compile(spec, lane_width=width)
        except Exception as exc:
            # Lane lowering is an optimization: a width that cannot compile
            # (or validate) must degrade to solo execution, not fail jobs.
            # Deterministic compiler failures (EvaError) are remembered so
            # the width is not recompiled per batch; anything else may be
            # transient, so it is warned about but retried next time.
            import warnings

            warnings.warn(
                f"lane variant (width {width}) of {spec.name!r} failed to "
                f"compile, serving solo: {type(exc).__name__}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            if isinstance(exc, EvaError):
                with self._lock:
                    self._lane_failures.add(key)
            return None

    def _served_for(self, signature: str, compilation: CompilationResult) -> _Served:
        """The cached per-signature record; built on first use, on a worker.

        Building here (where the compilation is in hand anyway) means deadline
        admission never forces a compile: until a program's first execution
        it falls back to the engine's observed history.
        """
        with self._lock:
            served = self._served.get(signature)
            if served is None:
                served = self._served[signature] = _Served(
                    engine=EvaluationEngine(
                        compilation, self.backend, threads=self.executor_threads
                    ),
                    info=self.batcher.inspect(compilation),
                )
                # Keep the side cache bounded alongside the registry.
                while len(self._served) > 2 * self.registry.capacity:
                    self._served.pop(next(iter(self._served)))
            return served

    def _count_rotation_tax(
        self, info: BatchInfo, program: str, client_id: str
    ) -> None:
        """One evaluation's rotation/key-switch tax, attributed per program/client."""
        for series, count in (
            ("serving.rotations", info.rotations),
            ("serving.keyswitch", info.keyswitches),
        ):
            if count:
                self.telemetry.inc(series, count, program=program, client=client_id)

    def _harvest_op_times(self, context: Any, program: str) -> None:
        """Fold the backend's per-op kernel timings into ``ckks.op.*`` and ``ckks.ntt.rows``.

        Real-backend contexts accumulate wall time and exact NTT rows per
        homomorphic op; the mock backend reports nothing, so this is free on
        the simulated path.
        """
        for op, (count, seconds) in context.drain_op_times().items():
            self.telemetry.inc("ckks.op.count", count, op=op, program=program)
            self.telemetry.inc("ckks.op.seconds", seconds, op=op, program=program)
        for op, rows in context.drain_ntt_rows().items():
            self.telemetry.inc("ckks.ntt.rows", rows, op=op, program=program)

    def _count_session_keys(
        self, compilation: CompilationResult, program: str, client_id: str
    ) -> None:
        """Account one session's Galois key footprint: the bytes its keys hold.

        A session holds each key as its ``(2, d, L+k, N)`` ``uint32`` form (one
        decomposition's shape, ``d * (L+k)`` rows, twice), read from the
        compiled parameters so every backend reports the same number.
        """
        parameters = compilation.parameters
        steps = len(parameters.rotation_steps)
        if not steps:
            return
        form_rows = modup_rows(
            len(parameters.data_bits), parameters.group_size, parameters.special_primes
        )
        key_bytes = steps * 2 * form_rows * parameters.poly_modulus_degree * 4
        self.telemetry.inc(
            "serving.galois.keys_bytes",
            key_bytes,
            program=program,
            client=client_id,
        )
        self.telemetry.set_gauge(
            "serving.galois.key_steps", steps, program=program
        )

    def _handle_batch(self, jobs: List[Job]) -> List[Any]:
        """The evaluation spine: every job of either kind is answered here.

        A batch is one group — (kind, compilation signature, client) — so its
        jobs share one compiled program, one session and one kind.
        """
        kind, signature, client_id = jobs[0].group
        requests = [job.payload for job in jobs]
        resolve_started = time.perf_counter()
        spec, compilation, cached_program = self._resolve_any(
            [request.name for request in requests], signature
        )
        served = self._served_for(spec.signature, compilation)
        resolve_seconds = time.perf_counter() - resolve_started
        for job in jobs:
            self.telemetry.span(
                job.trace_id,
                "compile_or_cache",
                resolve_seconds,
                cached=cached_program,
                program=spec.name,
            )
        plan = None
        if kind == "encrypted":
            # Client-held keys: the session is whatever the client attached.
            try:
                session = self.sessions.get_attached(compilation, client_id)
            except LookupError as exc:
                # The client may have registered its keys with a previous
                # process (server restart) or a different shard (reroute after
                # a shard failure): restore from the persistent store before
                # giving up.
                restore_started = time.perf_counter()
                session = self._restore_session(compilation, spec.name, client_id)
                if session is None:
                    raise ServingError(str(exc)) from exc
                restore_seconds = time.perf_counter() - restore_started
                for job in jobs:
                    self.telemetry.span(
                        job.trace_id, "session_restore", restore_seconds,
                        client=client_id,
                    )
            if not session.context.can_relinearize and compilation.relinearizes:
                raise ParameterError(
                    f"{spec.name!r} relinearizes, and the evaluation keys client "
                    f"{client_id!r} registered carry no relinearization key"
                )
        else:
            inputs = [request.inputs for request in requests]
            sizes = [request.output_size for request in requests]
            plan = self.batcher.plan(compilation, inputs, sizes, info=served.info)
            if plan is None and len(requests) >= 2:
                # Rotation-bearing program: try the lane-lowered variant sized
                # to this batch.  The variant computes, per lane, what the
                # base program computes on a replicated narrow input, so
                # answers agree with the solo path.
                variant = self._lane_variant_for(spec, served.info, requests)
                if variant is not None:
                    variant_served = self._served_for(variant.signature, variant)
                    variant_plan = self.batcher.plan(
                        variant, inputs, sizes, info=variant_served.info
                    )
                    if variant_plan is not None:
                        compilation, served, plan = variant, variant_served, variant_plan
            # Server-held keys, keyed by the compilation that will actually
            # run: a lane variant has its own rotation steps, hence own keys.
            session = self.sessions.get_session(compilation, client_id)
        cached_session = session.hits > 0
        # The unit of evaluation: a packed plan is one unit answering all its
        # jobs; anything else — a bundle the server cannot read, requests that
        # do not fit shared lanes — is one unit per job.
        units = [requests] if plan is not None else [[request] for request in requests]
        responses: List[Any] = []
        with session.lock:
            for unit in units:
                try:
                    responses += self._evaluate_unit(
                        unit, plan, spec, served, session, cached_program, cached_session
                    )
                except Exception as exc:  # fail this unit's jobs, not the batch
                    responses += [exc] * len(unit)
        for job, response in zip(jobs, responses):
            if not isinstance(response, Exception):
                response.queue_seconds = job.queue_seconds
        return responses

    def _evaluate_unit(
        self,
        requests: List[Any],
        plan: Optional[BatchPlan],
        spec: ProgramSpec,
        served: _Served,
        session: Session,
        cached_program: bool,
        cached_session: bool,
    ) -> List[Any]:
        """One evaluation, and the reply of every job it answers.

        ``requests`` is all the requests of a packed ``plan``, else exactly
        one.  Runs under the session lock.  Whatever happens, every handle
        this unit made the server responsible for is released on the way out.
        """
        from ..api.bundles import EncryptedOutputs, bundle_from_wire

        engine, info, context = served.engine, served.info, session.context
        client_id = session.client_id
        request = requests[0]
        encrypted = isinstance(request, EncryptedServeRequest)
        owned: List[Any] = []
        try:
            if encrypted:
                bundle = request.bundle
                if request.wire:
                    # Wire-decoded handles are the server's own copies.
                    bundle = bundle_from_wire(bundle, context)
                    owned += bundle.ciphertexts.values()
                if bundle.program_signature != spec.signature:
                    raise ServingError(
                        f"bundle was encrypted for a different compilation "
                        f"of {request.name!r} ({bundle.program_signature[:12]}... "
                        f"vs {spec.signature[:12]}...); recompile the client "
                        "against the server's program and options (including "
                        "its lane_width)"
                    )
                ciphers, plain = bundle.ciphertexts, bundle.plain
            else:
                if plan is not None:
                    inputs = self.batcher.pack(plan, [r.inputs for r in requests])
                else:
                    inputs = request.inputs
                    # A pinned lane width is a hard contract: the lowered
                    # rotations are lane-local, so data wider than the lane
                    # would be computed *wrongly*, not just unbatched.
                    wide = max(request_width(inputs), request.output_size or 0)
                    if info.lane_width is not None and wide > info.lane_width:
                        raise ServingError(
                            f"request of width {wide} exceeds the "
                            f"lane width {info.lane_width} "
                            f"{request.name!r} was registered with"
                        )
                ciphers, plain = engine.encrypt_inputs(context, inputs)
                owned += ciphers.values()
            start = time.perf_counter()
            # Inputs the server owns retire at their last use like any dead
            # value; a client's live bundle stays the client's.
            handles = engine.evaluate(
                context, ciphers, plain, retire_inputs=not encrypted or request.wire
            )
            elapsed = time.perf_counter() - start
            # One evaluation, however many jobs it answers: the rotation tax
            # is paid once, not per request — exactly the amortization the
            # counters exist to make visible.
            self._count_rotation_tax(info, spec.name, client_id)
            self._harvest_op_times(context, spec.name)
            if encrypted:
                # The outputs go to the caller, which releases the server's
                # ones once encoded or decrypted (EncryptedServeResponse.release).
                # A pass-through output aliases an input handle: a wire copy
                # is handed over with it, a live bundle's stays the client's.
                replied = {id(handle): handle for handle in handles.values()}
                owned = [handle for handle in owned if id(handle) not in replied]
                if not request.wire:
                    for handle in ciphers.values():
                        replied.pop(id(handle), None)
                return [
                    EncryptedServeResponse(
                        outputs=EncryptedOutputs(
                            program_signature=spec.signature,
                            ciphertexts=handles,
                            evaluate_seconds=elapsed,
                        ),
                        program=request.name,
                        client_id=client_id,
                        cached_program=cached_program,
                        execute_seconds=elapsed,
                        context=context,
                        owned=list(replied.values()),
                    )
                ]
            owned += handles.values()
            outputs = engine.decrypt_outputs(context, handles)
            if plan is not None:
                per_request = self.batcher.unpack(plan, outputs)
            else:
                # Solo answers default to the output's full period — the
                # request width, widened to the program constants' period —
                # which is the same view a batched (slotwise or lane-lowered)
                # execution yields for a replicated narrow input.
                width = request.output_size or min(
                    engine.program.vec_size,
                    max(request_width(request.inputs), info.min_lane),
                )
                per_request = [
                    {key: value[:width].copy() for key, value in outputs.items()}
                ]
            return [
                ServeResponse(
                    outputs=answer,
                    program=answered.name,
                    client_id=client_id,
                    batch_size=len(requests),
                    cached_program=cached_program,
                    cached_session=cached_session,
                    execute_seconds=elapsed,
                    lane_width=info.lane_width,
                )
                for answered, answer in zip(requests, per_request)
            ]
        finally:
            for handle in owned:
                context.release(handle)

    # -- introspection / lifecycle ----------------------------------------------
    def stats(self) -> Dict[str, object]:
        """One dict of registry/session/engine/quota/batching metrics.

        The counts and sizes are read back from the telemetry registry, so
        each equals its series in :meth:`metrics_snapshot`.
        """
        with self._lock:
            lane_failures = len(self._lane_failures)
        engine = self.engine.metrics_snapshot()
        return {
            "backend": getattr(self.backend, "name", "unknown"),
            "programs": self.programs(),
            "registry": self.registry.summary(),
            "sessions": self.sessions.summary(),
            "session_store": (
                self.session_store.summary() if self.session_store is not None else None
            ),
            "engine": engine,
            "quota": {**self.engine.ledger.summary(), "throttled": engine["throttled"]},
            # (signature, width) pairs whose lane variant failed to compile
            # and were pinned to solo execution; non-zero deserves a look.
            "lane_variant_failures": lane_failures,
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """The unified telemetry snapshot: every series of the registry.

        The two record directories are counted now, because sibling shards
        write them too; the engine's view is absorbed as ``serving.engine.*``
        gauges.
        """
        telemetry = self.telemetry
        if self.session_store is not None:
            telemetry.set_gauge("serving.store.records", self.session_store.file_count())
        if self.artifact_cache is not None:
            telemetry.set_gauge("serving.artifacts.records", self.artifact_cache.file_count())
        snapshot = telemetry.registry.snapshot()
        absorb_summary(snapshot, "serving.engine", self.engine.metrics_snapshot())
        return snapshot

    def close(self, wait: bool = True) -> None:
        """Stop workers and release sessions; with ``wait`` joins them first."""
        self.engine.close(wait=wait)

    def __enter__(self) -> "EvaServer":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


__all__ = [
    "EvaServer",
    "ServeRequest",
    "ServeResponse",
    "EncryptedServeRequest",
    "EncryptedServeResponse",
    "ProgramSpec",
]
