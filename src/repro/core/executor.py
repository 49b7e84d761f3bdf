"""Executors for EVA programs (Section 6.1).

Three layers are provided, mirroring the paper's asymmetric deployment model
(the client owns the keys and data, the server owns the compiled program):

* :class:`ReferenceExecutor` runs a program under the *identity scheme* of
  Section 3's execution semantics: Cipher values are ordinary vectors and the
  FHE-specific instructions are identities.  It defines the reference output
  every backend execution is compared against.
* :class:`EvaluationEngine` holds the three duties of one compiled program.
  :meth:`~EvaluationEngine.evaluate` is the server half: it schedules the
  instruction DAG over ciphertext handles, encoding plaintext operands at the
  level and scale their consumers require and recycling ciphertext memory as
  soon as a value is dead (retired); it needs only a backend context holding
  evaluation keys (see :meth:`repro.backend.hisa.BackendContext.evaluation_context`).
  :meth:`~EvaluationEngine.encrypt_inputs` and
  :meth:`~EvaluationEngine.decrypt_outputs` are the key owner's half.  Whoever
  holds the keys calls them — :class:`repro.api.ClientKit` for client-held
  keys, :class:`repro.serving.EvaServer` for a plaintext request under
  server-held keys — so every caller runs the same one evaluation.
* :class:`Executor` is the one-process convenience wrapper kept for
  compatibility: ``execute(inputs)`` is keygen plus those three duties in one
  call.  New code targeting the client/server split should use
  :class:`repro.api.ClientKit` and :class:`repro.serving.EvaServer` instead.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..backend.hisa import BackendContext, HomomorphicBackend
from ..errors import ExecutionError
from .analysis.scales import compute_scales
from .compiler import CompilationResult
from .ir import Program, Term
from .types import ValueType


def _broadcast(value: Any, vec_size: int) -> np.ndarray:
    array = np.atleast_1d(np.asarray(value, dtype=np.float64)).ravel()
    if array.size == vec_size:
        return array.astype(np.float64)
    if array.size == 1:
        return np.full(vec_size, float(array[0]))
    if vec_size % array.size != 0:
        raise ExecutionError(
            f"value of size {array.size} cannot fill a vector of size {vec_size}"
        )
    return np.tile(array, vec_size // array.size)


class ReferenceExecutor:
    """Execute a program under the identity scheme (plaintext reference)."""

    def __init__(self, program: Program) -> None:
        self.program = program

    def execute(self, inputs: Dict[str, Any]) -> Dict[str, np.ndarray]:
        vec_size = self.program.vec_size
        values: Dict[int, np.ndarray] = {}
        for term in self.program.terms():
            if term.is_input:
                if term.name not in inputs:
                    raise ExecutionError(f"missing value for input {term.name!r}")
                values[term.id] = _broadcast(inputs[term.name], vec_size)
            elif term.is_constant:
                values[term.id] = _broadcast(term.value, vec_size)
            else:
                args = [values[a.id] for a in term.args]
                values[term.id] = term.instruction.reference(term, args, vec_size)
        outputs = self.program.outputs
        return {name: _broadcast(values[t.id], vec_size) for name, t in outputs.items()}


@dataclass
class ExecutionStats:
    """Measurements collected during a backend execution."""

    wall_seconds: float = 0.0
    context_seconds: float = 0.0
    encrypt_seconds: float = 0.0
    evaluate_seconds: float = 0.0
    decrypt_seconds: float = 0.0
    op_count: int = 0
    peak_live_ciphertexts: int = 0
    threads: int = 1


@dataclass
class ExecutionResult:
    """Decrypted outputs plus execution statistics."""

    outputs: Dict[str, np.ndarray]
    stats: ExecutionStats = field(default_factory=ExecutionStats)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.outputs[name]


class EvaluationEngine:
    """Schedule a compiled program's DAG over ciphertext handles.

    The engine holds everything evaluation needs that is *independent of key
    material*: the compiled program, the per-term scale analysis, and the
    thread count.  Ciphertext inputs arrive as backend handles keyed by input
    name; the engine returns output handles without ever touching a secret
    key, which is what lets a server evaluate on data it cannot read.
    """

    def __init__(
        self,
        compilation: CompilationResult,
        backend: Optional[HomomorphicBackend] = None,
        threads: int = 1,
    ) -> None:
        if backend is None:
            from ..backend.mock_backend import MockBackend

            backend = MockBackend()
        self.compilation = compilation
        self.backend = backend
        self.threads = max(int(threads), 1)
        self.program = compilation.program
        self._scales = compute_scales(self.program)
        #: The evaluation order and each term's use count, fixed with the program.
        self._terms = self.program.terms()
        self._use_counts = {tid: len(users) for tid, users in self.program.uses().items()}

    # -- public API -------------------------------------------------------------
    # Input classification walks terms() rather than the inputs dict: an
    # input that became unreachable (dead) during compilation is absent from
    # the traversal, has no scale assignment, and needs no value.
    def input_scales(self) -> Dict[str, float]:
        """Scale (bits) at which each live Cipher input must be encrypted (level 0)."""
        return {
            term.name: float(self._scales[term.id])
            for term in self._terms
            if term.is_input and term.value_type is ValueType.CIPHER
        }

    def cipher_input_names(self) -> List[str]:
        return [
            term.name
            for term in self._terms
            if term.is_input and term.value_type is ValueType.CIPHER
        ]

    def plain_input_names(self) -> List[str]:
        return [
            term.name
            for term in self._terms
            if term.is_input and term.value_type is not ValueType.CIPHER
        ]

    def encrypt_inputs(
        self, context: BackendContext, inputs: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """The key owner's first duty: encrypted handles and plain vectors.

        Cipher inputs are encrypted at the scale the compiled program requires
        (level 0); Vector inputs are broadcast unencrypted.  A missing live
        input raises; extra names — including declared-but-dead inputs the
        compiler pruned — are ignored.  The caller owns the returned handles;
        when this raises part-way it has released the ones it made.  This is
        the single implementation :class:`Executor`, :class:`repro.api.ClientKit`
        and :class:`repro.serving.EvaServer` use.
        """
        cipher_inputs: Dict[str, Any] = {}
        plain_inputs: Dict[str, np.ndarray] = {}
        vec_size = self.program.vec_size
        scales = self.input_scales()
        try:
            for name in self.cipher_input_names():
                if name not in inputs:
                    raise ExecutionError(f"missing value for input {name!r}")
                cipher_inputs[name] = context.encrypt(
                    _broadcast(inputs[name], vec_size), scales[name], level=0
                )
            for name in self.plain_input_names():
                if name not in inputs:
                    raise ExecutionError(f"missing value for input {name!r}")
                plain_inputs[name] = _broadcast(inputs[name], vec_size)
        except BaseException:
            for handle in cipher_inputs.values():
                context.release(handle)
            raise
        return cipher_inputs, plain_inputs

    def decrypt_outputs(
        self, context: BackendContext, handles: Dict[str, Any]
    ) -> Dict[str, np.ndarray]:
        """The key owner's last duty: decrypt output handles to float vectors.

        ``context`` must hold the secret key.  The handles stay live — they
        belong to whoever obtained them from :meth:`evaluate`.
        """
        vec_size = self.program.vec_size
        return {
            name: context.decrypt(handle)[:vec_size].copy()
            for name, handle in handles.items()
        }

    def evaluate(
        self,
        context: BackendContext,
        cipher_inputs: Dict[str, Any],
        plain_inputs: Optional[Dict[str, Any]] = None,
        retire_inputs: bool = False,
    ) -> Dict[str, Any]:
        """Evaluate the DAG; returns output name -> ciphertext handle.

        ``cipher_inputs`` maps Cipher input names to backend ciphertext
        handles (already encrypted by the data owner); ``plain_inputs`` maps
        the program's unencrypted vector inputs to plain values.

        ``retire_inputs`` states who owns the input handles for this call.
        A caller that owns them (it encrypted or wire-decoded them itself)
        passes True and each is released after its last use, like any other
        dead value.  A caller evaluating someone else's live bundle leaves it
        False: the client may re-submit or re-serialize those handles.  The
        returned output handles always belong to the caller.  An input the
        compilation did not encrypt is refused before any op (``check_input``).
        """
        plain_inputs = plain_inputs or {}
        cipher_values: Dict[int, Any] = {}
        plain_values: Dict[int, np.ndarray] = {}
        vec_size = self.program.vec_size
        for term in self._terms:
            if term.is_input:
                if term.value_type is ValueType.CIPHER:
                    if term.name not in cipher_inputs:
                        raise ExecutionError(
                            f"missing ciphertext for encrypted input {term.name!r}"
                        )
                    context.check_input(term.name, cipher_inputs[term.name], self._scales[term.id])
                    cipher_values[term.id] = cipher_inputs[term.name]
                else:
                    if term.name not in plain_inputs:
                        raise ExecutionError(
                            f"missing value for plaintext input {term.name!r}"
                        )
                    plain_values[term.id] = _broadcast(plain_inputs[term.name], vec_size)
            elif term.is_constant:
                plain_values[term.id] = _broadcast(term.value, vec_size)
        return self._evaluate(context, cipher_values, plain_values, retire_inputs)

    # -- internals ---------------------------------------------------------------
    def _evaluate(
        self,
        context: BackendContext,
        cipher_values: Dict[int, Any],
        plain_values: Dict[int, np.ndarray],
        retire_inputs: bool,
    ) -> Dict[str, Any]:
        program = self.program
        remaining_uses = dict(self._use_counts)
        terms = self._terms
        # Never retired: the outputs, and inputs the caller does not own.
        keep_ids = {t.id for t in program.outputs.values()}
        if not retire_inputs:
            keep_ids.update(t.id for t in terms if t.is_input)

        try:
            if self.threads == 1:
                for term in terms:
                    if term.is_root:
                        continue
                    self._execute_term(context, term, cipher_values, plain_values)
                    self._retire_args(context, term, remaining_uses, keep_ids, cipher_values)
            else:
                self._evaluate_parallel(
                    context, terms, cipher_values, plain_values, remaining_uses, keep_ids
                )
            handles = {}
            for name, term in program.outputs.items():
                if term.id not in cipher_values:
                    raise ExecutionError(f"output {name!r} did not produce a ciphertext")
                handles[name] = cipher_values[term.id]
            return handles
        except BaseException:
            # A failed evaluation hands nothing back, so nothing it made may stay
            # live: every value not yet retired goes now, the caller's inputs
            # only if it gave them up.
            inputs = {t.id for t in terms if t.is_input}
            for term_id, handle in cipher_values.items():
                if retire_inputs or term_id not in inputs:
                    context.release(handle)
            raise

    def _evaluate_parallel(
        self,
        context: BackendContext,
        terms: List[Term],
        cipher_values: Dict[int, Any],
        plain_values: Dict[int, np.ndarray],
        remaining_uses: Dict[int, int],
        keep_ids: set,
    ) -> None:
        """Dependency-driven parallel evaluation of the instruction DAG.

        Active (ready) instructions are dispatched to a thread pool as soon as
        all their parents have produced values, mirroring the asynchronous
        scheduling of the paper's Galois-based executor.

        Once any instruction fails, no newly-ready consumers are dispatched;
        already-dispatched instructions (which never depend on the failed one)
        drain, and the error of the topologically-earliest *recorded* failure
        is re-raised.  When a single instruction can fail this makes the
        surfaced exception independent of thread interleaving; with several
        independently-failing instructions the winner is biased to (but not
        guaranteed to be) the earliest, since a failure may suppress dispatch
        of another failing instruction entirely.
        """
        import threading

        lock = threading.Lock()
        terms_by_id = {t.id: t for t in terms}
        order = {t.id: i for i, t in enumerate(terms)}
        pending_args: Dict[int, int] = {}
        consumers: Dict[int, List[int]] = {t.id: [] for t in terms}
        for term in terms:
            if term.is_root:
                continue
            pending_args[term.id] = sum(1 for a in term.args if a.is_instruction)
            for arg in term.args:
                if arg.is_instruction:
                    consumers[arg.id].append(term.id)

        ready = [
            t
            for t in terms
            if t.is_instruction and pending_args[t.id] == 0
        ]
        done_count = 0
        inflight = 0
        total = sum(1 for t in terms if t.is_instruction)
        done_event = threading.Event()
        errors: List[Tuple[int, BaseException]] = []

        def run_term(term: Term) -> None:
            nonlocal done_count, inflight
            try:
                self._execute_term(context, term, cipher_values, plain_values)
            except BaseException as exc:  # propagate to the caller
                with lock:
                    errors.append((order[term.id], exc))
                    inflight -= 1
                    if inflight == 0:
                        done_event.set()
                return
            newly_ready: List[Term] = []
            with lock:
                self._retire_args(context, term, remaining_uses, keep_ids, cipher_values)
                done_count += 1
                inflight -= 1
                if not errors:
                    for consumer_id in consumers[term.id]:
                        pending_args[consumer_id] -= 1
                        if pending_args[consumer_id] == 0:
                            newly_ready.append(terms_by_id[consumer_id])
                    inflight += len(newly_ready)
                if done_count == total or inflight == 0:
                    done_event.set()
            for nxt in newly_ready:
                pool.submit(run_term, nxt)

        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            if total == 0:
                return
            with lock:
                inflight = len(ready)
            for term in ready:
                pool.submit(run_term, term)
            done_event.wait()
        if errors:
            raise min(errors, key=lambda entry: entry[0])[1]

    def _execute_term(
        self,
        context: BackendContext,
        term: Term,
        cipher_values: Dict[int, Any],
        plain_values: Dict[int, np.ndarray],
    ) -> None:
        row = term.instruction
        if term.value_type is not ValueType.CIPHER:
            args = [plain_values[a.id] for a in term.args]
            plain_values[term.id] = row.reference(term, args, self.program.vec_size)
            return
        handle = next(cipher_values[a.id] for a in term.args if a.value_type is ValueType.CIPHER)
        operands = []
        for arg in term.args:
            if arg.value_type is ValueType.CIPHER:
                operands.append(cipher_values[arg.id])
                continue
            # A plaintext operand is encoded at its ciphertext partner's level,
            # and at the partner's scale where the row matches scales (ADD/SUB).
            scale = context.scale_bits(handle) if row.scale == "matched" else self._scales[arg.id]
            level = context.level(handle)
            operands.append(context.encode(plain_values[arg.id], scale, level=level))
        cipher_values[term.id] = row.evaluate(context, term, operands)

    def _retire_args(
        self,
        context: BackendContext,
        term: Term,
        remaining_uses: Dict[int, int],
        keep_ids: set,
        cipher_values: Dict[int, Any],
    ) -> None:
        """Release ciphertexts whose last consumer has executed (memory reuse)."""
        for arg in term.args:
            if arg.id not in remaining_uses:
                continue
            remaining_uses[arg.id] -= 1
            if remaining_uses[arg.id] <= 0 and arg.id in cipher_values and arg.id not in keep_ids:
                # Popped, so the clean-up after a failure sees only live values.
                context.release(cipher_values.pop(arg.id))


class Executor:
    """One-process compatibility wrapper: encrypt, evaluate, decrypt.

    This is the pre-split API: a single ``execute(inputs)`` call performs the
    client duties (keygen, encoding, encryption, decryption) *and* the server
    duty (homomorphic evaluation) in one process.  It remains fully supported
    for examples, benchmarks, and tests, but code that needs the paper's
    trust boundary — the server never sees plaintext inputs or the secret
    key — should use :class:`repro.api.ClientKit` plus
    :class:`repro.serving.EvaServer`, which share the same
    :class:`EvaluationEngine` underneath.
    """

    def __init__(
        self,
        compilation: CompilationResult,
        backend: Optional[HomomorphicBackend] = None,
        threads: int = 1,
    ) -> None:
        self.engine = EvaluationEngine(compilation, backend=backend, threads=threads)
        self.compilation = compilation
        self.backend = self.engine.backend
        self.program = self.engine.program

    @property
    def threads(self) -> int:
        return self.engine.threads

    # -- public API -------------------------------------------------------------
    def create_context(self) -> BackendContext:
        """Build a backend context (with keys) for this compilation.

        The returned context can be passed to :meth:`execute` repeatedly so a
        serving layer amortizes context creation and key generation across
        requests instead of paying them on every call.
        """
        context = self.backend.create_context(self.compilation.parameters)
        context.generate_keys()
        return context

    def execute(
        self, inputs: Dict[str, Any], context: Optional[BackendContext] = None
    ) -> ExecutionResult:
        """Encrypt ``inputs``, evaluate the program, and decrypt the outputs.

        When ``context`` is given it must come from :meth:`create_context` (or
        an equivalent backend context with keys already generated); context
        creation and key generation are then skipped entirely and
        ``stats.context_seconds`` stays zero.
        """
        stats = ExecutionStats(threads=self.threads)
        start_all = time.perf_counter()

        if context is None:
            t0 = time.perf_counter()
            context = self.create_context()
            stats.context_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        cipher_inputs, plain_inputs = self.engine.encrypt_inputs(context, inputs)
        stats.encrypt_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        # This process encrypted the inputs, so it owns them: retire at last use.
        output_handles = self.engine.evaluate(
            context, cipher_inputs, plain_inputs, retire_inputs=True
        )
        stats.evaluate_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        outputs = self.engine.decrypt_outputs(context, output_handles)
        stats.decrypt_seconds = time.perf_counter() - t0

        stats.wall_seconds = time.perf_counter() - start_all
        stats.op_count = getattr(context, "op_count", 0)
        stats.peak_live_ciphertexts = getattr(context, "peak_live_ciphertexts", 0)
        return ExecutionResult(outputs=outputs, stats=stats)


def execute_reference(program: Program, inputs: Dict[str, Any]) -> Dict[str, np.ndarray]:
    """Convenience wrapper around :class:`ReferenceExecutor`."""
    return ReferenceExecutor(program).execute(inputs)
