"""Per-client session cache of backend contexts and generated keys.

Creating a backend context and generating its secret/public/relinearization/
Galois keys is the other per-request cost one-shot execution pays besides
compilation.  A *session* pins that work to a
``(client, encryption parameters, rotation steps)`` triple: the first request
of a session builds the context and keys, every later request reuses them.
The server's evaluation spine runs every request under its session's lock and
leaves the context's live-ciphertext count where it found it.
Distinct clients never share a session — in a real deployment each client
owns its own secret key, so contexts must not leak across clients even when
their encryption parameters coincide.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..backend.hisa import BackendContext, HomomorphicBackend
from ..core.compiler import CompilationResult
from .registry import cache_view
from .telemetry import Telemetry

SessionKey = Tuple[str, int, Tuple[int, ...], Tuple[int, int], Tuple[int, ...]]

_COUNTERS = ("serving.sessions.hits", "serving.sessions.misses", "serving.sessions.evictions")


def session_key(compilation: CompilationResult, client_id: str = "default") -> SessionKey:
    """The cache key of a session: client plus everything keygen depends on."""
    parameters = compilation.parameters
    return (
        str(client_id),
        parameters.poly_modulus_degree,
        tuple(parameters.coeff_modulus_bits),
        (parameters.special_primes, parameters.group_size),
        tuple(sorted(compilation.rotation_steps)),
    )


@dataclass
class Session:
    """A cached context (with keys) and its bookkeeping."""

    key: SessionKey
    context: BackendContext
    created_at: float
    keygen_seconds: float
    hits: int = 0
    #: True when the context was supplied by the client (evaluation keys only,
    #: no secret key) rather than generated server-side.  Client-keyed
    #: sessions are the paper's deployment model: the server can evaluate but
    #: never decrypt.
    client_keyed: bool = False
    #: Serializes executions sharing this context: backend contexts (RNG state,
    #: op counters, real key material) are not safe for concurrent evaluation.
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def client_id(self) -> str:
        """The owning client's id."""
        return self.key[0]


class SessionManager:
    """LRU cache of live backend sessions keyed by :func:`session_key`.

    ``capacity`` bounds the number of concurrently cached sessions (each one
    holds key material and, for real backends, sizeable Galois keys); the
    least-recently-used session is dropped when the bound is exceeded.
    Lookups, evictions and the cache's sizes are written to ``telemetry``
    (the server's, or a fresh one), where :meth:`summary` reads them back.
    """

    def __init__(
        self,
        backend: HomomorphicBackend,
        capacity: int = 32,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("session capacity must be at least 1")
        self.backend = backend
        self.capacity = capacity
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        for name in _COUNTERS:
            self.telemetry.inc(name, 0.0)
        self.telemetry.set_gauge("serving.sessions.capacity", capacity)
        self._sessions: "OrderedDict[SessionKey, Session]" = OrderedDict()
        #: Client-keyed (attached) sessions live in their own namespace so a
        #: client that registers evaluation keys for the encrypted path keeps
        #: its independent server-generated session for plaintext requests.
        self._attached: "OrderedDict[SessionKey, Session]" = OrderedDict()
        self._lock = threading.Lock()
        self._count_sizes()

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions) + len(self._attached)

    def _find(self, table: OrderedDict, key: SessionKey) -> Optional[Session]:
        """The session under ``key``, refreshed and counted (lock held)."""
        session = table.get(key)
        if session is None:
            self.telemetry.inc("serving.sessions.misses")
            return None
        table.move_to_end(key)
        self.telemetry.inc("serving.sessions.hits")
        session.hits += 1
        return session

    def _install(self, table: OrderedDict, session: Session) -> None:
        """Put ``session`` into ``table``, evicting past capacity (lock held)."""
        table[session.key] = session
        table.move_to_end(session.key)
        while len(table) > self.capacity:
            table.popitem(last=False)
            self.telemetry.inc("serving.sessions.evictions")
        self._count_sizes()

    def _count_sizes(self) -> None:
        """Publish the cache's sizes (lock held, or during construction)."""
        keys = list(self._sessions) + list(self._attached)
        self.telemetry.set_gauge("serving.sessions.sessions", len(keys))
        self.telemetry.set_gauge("serving.sessions.clients", len({key[0] for key in keys}))
        self.telemetry.set_gauge("serving.sessions.client_keyed", len(self._attached))

    def get(
        self, compilation: CompilationResult, client_id: str = "default"
    ) -> BackendContext:
        """Return a keyed context for ``(compilation, client)``, reusing if cached."""
        return self.get_session(compilation, client_id).context

    def get_session(
        self, compilation: CompilationResult, client_id: str = "default"
    ) -> Session:
        """The cached session for (compilation, client), creating it on miss."""
        key = session_key(compilation, client_id)
        with self._lock:
            session = self._find(self._sessions, key)
            if session is not None:
                return session
        # Keygen runs outside the lock: it is the expensive part and other
        # sessions should not stall behind it.
        start = time.perf_counter()
        context = self.backend.create_context(compilation.parameters)
        context.generate_keys()
        keygen_seconds = time.perf_counter() - start
        session = Session(
            key=key,
            context=context,
            created_at=time.time(),
            keygen_seconds=keygen_seconds,
        )
        with self._lock:
            existing = self._sessions.get(key)
            if existing is not None:
                # A concurrent request built the same session first; reuse it
                # so every caller sees one context per session.
                self._sessions.move_to_end(key)
                existing.hits += 1
                return existing
            self._install(self._sessions, session)
        return session

    def attach(
        self,
        compilation: CompilationResult,
        client_id: str,
        context: BackendContext,
    ) -> Session:
        """Install a client-supplied evaluation context for the encrypted path.

        The context must hold no secret key (the client keeps that).  Attached
        sessions live in their own namespace: pre-encrypted bundles evaluate
        under the client's own evaluation keys (the server can never decrypt
        them), while the client's plaintext requests — if it makes any — keep
        using an independent server-generated session.  Keys that cannot make
        every compiled rotation are refused (``ParameterError``).
        """
        if getattr(context, "has_secret_key", True):
            raise ValueError(
                "attached sessions must use evaluation-only contexts "
                "(no secret key); derive one with ClientKit.evaluation_context() "
                "or send ClientKit.export_evaluation_keys()"
            )
        context.check_rotation_keys(compilation.parameters.rotation_steps)
        key = session_key(compilation, client_id)
        session = Session(
            key=key,
            context=context,
            created_at=time.time(),
            keygen_seconds=0.0,
            client_keyed=True,
        )
        with self._lock:
            self._install(self._attached, session)
        return session

    def get_attached(
        self, compilation: CompilationResult, client_id: str
    ) -> Session:
        """Return the client-keyed session for ``(compilation, client)``.

        Unlike :meth:`get_session` this never generates keys server-side: a
        missing or server-keyed session is an error, because a pre-encrypted
        bundle can only be evaluated under the keys its client exported.
        """
        key = session_key(compilation, client_id)
        with self._lock:
            session = self._find(self._attached, key)
        if session is not None:
            return session
        raise LookupError(
            f"client {client_id!r} has not registered evaluation keys for this "
            "program (create a session first)"
        )

    def summary(self) -> Dict[str, object]:
        """Session-cache sizes and counters, read back from the telemetry registry."""
        metrics = self.telemetry.registry
        return {
            "capacity": self.capacity,
            "sessions": int(metrics.gauge_value("serving.sessions.sessions")),
            "clients": int(metrics.gauge_value("serving.sessions.clients")),
            "client_keyed": int(metrics.gauge_value("serving.sessions.client_keyed")),
            **cache_view(metrics, _COUNTERS),
        }
