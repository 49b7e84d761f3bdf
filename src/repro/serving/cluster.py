"""Multi-process sharded serving: consistent-hash routing over EvaServer shards.

A single :class:`~repro.serving.server.EvaServer` is bounded by one process —
one GIL, one job engine, one session cache.  :class:`EvaCluster` scales past
that by running N *shards*, each a full ``EvaServer`` (own
:class:`~repro.serving.registry.ProgramRegistry`,
:class:`~repro.serving.jobs.JobEngine`, and
:class:`~repro.serving.sessions.SessionManager`) in its own process behind
the existing newline-JSON TCP transport, and routing every client to a shard
with a :class:`ConsistentHashRing`.

Routing is by ``client_id``: all of a client's requests land on one shard, so
its compiled programs, generated keys, and slot batches stay warm in that
shard's caches.  Consistent hashing keeps the mapping stable — adding or
removing one shard remaps only ~1/N of the clients instead of reshuffling
everyone.

Sessions survive shard loss because shards share one
:class:`~repro.serving.store.SessionStore` directory: ``create_session``
persists the client's exported key blob, and whichever shard a rerouted
client lands on lazily rebuilds the evaluation context from disk.  The
cluster detects a dead shard on the first failed request, removes it from the
ring, and retries the request on the client's new home shard — transparently
to :class:`~repro.serving.netserver.ServingClient`, whose wire protocol is
unchanged.

Shard processes are started with the ``spawn`` method (safe to use from
threaded parents) and are daemons of the front-door process; killing the
front door kills the fleet.

Shards need not be local: :meth:`EvaCluster.attach_shard` adds a **remote**
``host:port`` endpoint (a running :class:`~repro.serving.netserver.EvaTcpServer`
anywhere on the network) to the same ring — exposed on the wire as the
``join`` op and loadable from a cluster config file
(:func:`load_cluster_config`).  Remote shards get the same health probes,
drain/rejoin lifecycle, and binary-frame forwarding as local ones; they are
simply never spawned, killed, or respawned by this process.

A :class:`ScalePolicy` adds watermark **autoscaling**: when the fleet-wide
queue depth stays above the high watermark the cluster spawns (or rejoins) a
local shard, and when it stays below the low watermark it drains one —
with consecutive-observation hysteresis and a cooldown so an oscillating
load cannot make membership flap.  Decisions are recorded on the cluster's
own telemetry plane as ``cluster.scale.*`` series.

Two decisions are data, each in one place: *how a serving process is
configured* is a :class:`ShardConfig` (the recipe ``serve``, a shard and a
cluster all build from), and *what state a shard is in* is the table of the
sans-IO :mod:`repro.serving.membership`, which this module feeds observations.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
import weakref
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import tomlcompat
from ..core.compiler import CompilerOptions, frontend_graph
from ..errors import EvaError, ServingError, TransportError
from .membership import (
    DEAD,
    DRAIN,
    DRAINED,
    JOIN,
    LIVE,
    PROBE_FAILED,
    PROBE_OK,
    PROCESS_DIED,
    REJOIN,
    REJOIN_RESPAWNED,
    TRANSPORT_FAILURE,
    Autoscaler,
    ConsistentHashRing,
    Membership,
    ScalePolicy,
)
from .quotas import FairnessPolicy
from .telemetry import Telemetry, aggregate_snapshots, merge_traces, new_trace_id

#: Transport-level failures that justify failing over to another shard.
_FAILOVER_ERRORS = (TransportError, OSError)


# -- the recipe of a serving process -----------------------------------------------
@dataclass
class BackendSpec:
    """Picklable recipe for building a backend inside a shard process.

    ``op_latency`` (mock backends only) emulates a fixed per-homomorphic-op
    hardware latency, so scaling measurements exercise the serving stack
    rather than the host's core count.
    """

    name: str = "mock"
    seed: int = 0
    op_latency: float = 0.0

    def __post_init__(self) -> None:
        if self.name not in ("mock", "mock-exact", "ckks"):
            raise EvaError(
                f"unknown backend {self.name!r} (choose mock, mock-exact, or ckks)"
            )
        if self.name == "ckks" and self.op_latency:
            raise EvaError("op_latency is a mock-backend knob")

    def build(self):
        """Instantiate the backend this spec describes."""
        if self.name == "ckks":
            from ..backend import CkksBackend

            return CkksBackend(seed=self.seed)
        from ..backend import MockBackend

        return MockBackend(
            error_model="none" if self.name == "mock-exact" else "gaussian",
            seed=self.seed,
            op_latency=self.op_latency,
        )


def _from_table(key: str, value: Any, kind: type) -> Any:
    """``value`` as a ``kind``: itself, or built from a config table of its fields."""
    if isinstance(value, kind):
        return value
    if not isinstance(value, dict):
        raise ServingError(
            f"{key} must be a {kind.__name__} or a table of its fields, not {value!r}"
        )
    try:
        return kind(**value)
    except (TypeError, ValueError, EvaError) as error:
        raise ServingError(f"bad {key}: {error}") from None


def _scalar(key: str, value: Any, kind: type, optional: bool) -> Any:
    """``value`` checked against ``kind`` (an int is a fine float, a path a
    fine str)."""
    if value is None and optional:
        return None
    if kind is str and isinstance(value, os.PathLike):
        return os.fspath(value)
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
        raise ServingError(f"{key} must be {kind.__name__}, not {value!r}")
    return value


@dataclass
class ShardConfig:
    """The recipe of one serving process (every field defaulted, picklable).

    ``repro.cli serve``, a spawned shard and :class:`EvaCluster` (which takes
    these fields as keywords, a ``[cluster]`` config table as the same) all
    bring their server up with :meth:`build`, so a knob reaches every kind of
    serving process or none.  Construction validates and coerces, before any
    process exists: ``backend`` may be a :class:`BackendSpec`, a backend name
    or a table of its fields, ``fairness`` a policy or a table of its fields;
    a wrong type raises :class:`~repro.errors.ServingError` naming the key.
    """

    backend: Any = None
    #: Directory persisting client evaluation-key blobs (shared by shards).
    session_dir: Optional[str] = None
    host: str = "127.0.0.1"
    workers: int = 2
    queue_size: int = 256
    max_batch: int = 8
    batch_window: float = 0.0
    executor_threads: int = 1
    session_ttl: Optional[float] = None
    #: Shared compiled-artifact directory: each shard's registry loads
    #: programs (and lane variants) its siblings already compiled.
    artifact_dir: Optional[str] = None
    #: Per-client quotas, enforced twice: at the router (before a request
    #: crosses to a shard) and at every shard's job engine.
    fairness: Optional[FairnessPolicy] = None
    #: Requests slower than this (seconds, end-to-end in the process) emit one
    #: structured WARNING line and join its slow ring buffer.
    slow_threshold: float = 1.0
    #: Structured-logging switches (``serve --log-json`` / ``--log-level``):
    #: applied inside a spawned interpreter, where the parent's logging
    #: configuration does not exist.
    log_json: bool = False
    log_level: str = "INFO"
    #: Pre-warm this many of the most-requested lane widths per program.
    precompile_widths: int = 0

    #: The fields that may be None, and what they hold otherwise (every other
    #: scalar field is checked against the type of its default).
    _OPTIONAL = {"session_dir": str, "session_ttl": float, "artifact_dir": str}

    def __post_init__(self) -> None:
        backend = {} if self.backend is None else self.backend
        if isinstance(backend, str):
            backend = {"name": backend}
        self.backend = _from_table("backend", backend, BackendSpec)
        if self.fairness is not None:
            self.fairness = _from_table("fairness", self.fairness, FairnessPolicy)
        for spec in fields(self):
            key = spec.name
            if key not in ("backend", "fairness"):
                kind = self._OPTIONAL.get(key) or type(spec.default)
                value = _scalar(key, getattr(self, key), kind, key in self._OPTIONAL)
                setattr(self, key, value)

    def build(
        self, programs: Iterable[Tuple[str, Any, Any]], shard: Optional[int] = None
    ):
        """The :class:`~repro.serving.server.EvaServer` this recipe describes.

        Opens the session store (pruning expired records, so a long-lived
        shared directory does not grow unboundedly across restarts), the
        artifact cache and the telemetry plane (labelled ``shard``), and
        registers ``programs`` — ``(name, graph, options)`` triples.
        """
        from .artifacts import ArtifactCache, LaneWidthPolicy
        from .server import EvaServer
        from .store import SessionStore

        session_store = None
        if self.session_dir:
            session_store = SessionStore(self.session_dir, ttl=self.session_ttl)
            pruned = session_store.prune()
            if pruned:
                print(f"pruned {pruned} expired session record(s)", file=sys.stderr)
        widths, artifacts = self.precompile_widths, self.artifact_dir
        server = EvaServer(
            backend=self.backend.build(),
            workers=self.workers,
            queue_size=self.queue_size,
            max_batch=self.max_batch,
            batch_window=self.batch_window,
            executor_threads=self.executor_threads,
            session_store=session_store,
            artifact_cache=ArtifactCache(artifacts) if artifacts else None,
            fairness=self.fairness,
            precompile=LaneWidthPolicy(top_widths=widths) if widths else None,
            telemetry=Telemetry(slow_threshold=self.slow_threshold, shard=shard),
        )
        for name, program, options in programs:
            server.register(name, program, options=options)
        return server


def _shard_main(
    config: ShardConfig, programs, index: int, ready
):  # pragma: no cover - subprocess
    """Entry point of one shard process: a full EvaServer behind TCP.

    Runs in a fresh ``spawn``-ed interpreter.  ``programs`` are ``(name, proto
    bytes, options)`` triples (serialized for pickling).  Reports its bound
    port (or the startup error) through the ``ready`` pipe, then serves
    forever until the parent terminates it.
    """
    try:
        from ..core.serialization.proto import deserialize
        from .netserver import EvaTcpServer
        from .telemetry import configure_logging

        configure_logging(json_logs=config.log_json, level=config.log_level)
        entries = [
            (name, deserialize(data, name=name), options)
            for name, data, options in programs
        ]
        server = config.build(entries, shard=index)
        tcp = EvaTcpServer(server, host=config.host, port=0)
    except BaseException as exc:
        try:
            ready.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            ready.close()
        return
    ready.send(("ok", {"port": tcp.address[1]}))
    ready.close()
    try:
        tcp.serve_forever()
    finally:
        tcp.shutdown()
        server.close(wait=False)


@dataclass
class ShardHandle:
    """A running shard as seen from the front door.

    Two modes share one handle type.  A **local** shard wraps the process
    this cluster spawned; a **remote** shard (``process is None``) is a
    ``host:port`` endpoint attached with :meth:`EvaCluster.attach_shard` —
    its liveness is whatever the last TCP probe said (``last_probe_ok``),
    since there is no process object to ask.
    """

    index: int
    process: Any
    host: str
    port: int
    #: Result of the most recent TCP probe; the liveness signal of remote
    #: shards (local ones ask their process instead).  Starts True so a
    #: freshly attached shard is live until a probe says otherwise.
    last_probe_ok: bool = True

    @property
    def remote(self) -> bool:
        """True for an attached host:port endpoint with no local process."""
        return self.process is None

    @property
    def mode(self) -> str:
        """``local`` (spawned child process) or ``remote`` (attached endpoint)."""
        return "remote" if self.remote else "local"

    @property
    def pid(self) -> Optional[int]:
        """The local shard process pid (None for remote shards)."""
        return None if self.process is None else self.process.pid

    def alive(self) -> bool:
        """Whether the shard looked alive at the last probe (remote) or is
        running (local)."""
        return self.last_probe_ok if self.remote else self.process.is_alive()

    def info(self) -> Dict[str, Any]:
        """Wire-friendly shard descriptor (index, mode, address, liveness)."""
        return {
            "index": self.index,
            "pid": self.pid,
            "host": self.host,
            "port": self.port,
            "alive": self.alive(),
            "mode": self.mode,
        }


# -- cluster config files ----------------------------------------------------------
def load_cluster_config(path: Any) -> Dict[str, Any]:
    """Parse a cluster TOML config into constructor-ready pieces.

    The file has up to three sections::

        [cluster]            # EvaCluster arguments and ShardConfig fields
        shards = 2
        batch_window = 0.01

        [[remote]]           # remote shards to attach after start
        host = "10.0.0.5"
        port = 7001

        [scale]              # ScalePolicy fields (presence enables scaling)
        high_queue_depth = 32
        low_queue_depth = 4
        interval = 1.0       # seconds between autoscaler ticks

    Returns ``{"cluster": {...}, "remote": [(host, port), ...],
    "scale": ScalePolicy-or-None, "scale_interval": float-or-None}``.
    Parsed by :mod:`repro.tomlcompat` (``tomllib`` on 3.11+, a subset parser
    before).
    """
    with open(path, "rb") as fh:
        raw = fh.read().decode("utf-8")
    try:
        data = tomlcompat.loads(raw)
    except ValueError as error:
        raise ServingError(f"{path}: malformed cluster config: {error}") from None
    cluster = dict(data.get("cluster", {}) or {})
    remotes: List[Tuple[str, int]] = []
    for entry in data.get("remote", []) or []:
        if "host" not in entry or "port" not in entry:
            raise ServingError("each [[remote]] entry needs 'host' and 'port'")
        remotes.append((str(entry["host"]), int(entry["port"])))
    scale_fields = dict(data.get("scale") or {})
    interval = scale_fields.pop("interval", None)
    try:
        scale = ScalePolicy(**scale_fields) if scale_fields else None
    except TypeError as error:
        raise ServingError(f"bad [scale] section: {error}") from None
    return {
        "cluster": cluster,
        "remote": remotes,
        "scale": scale,
        "scale_interval": float(interval) if interval is not None else None,
    }


def _close_quietly(client: Any) -> None:
    try:
        client.close()
    except Exception:
        pass


# -- the cluster front door --------------------------------------------------------
class EvaCluster:
    """Front door over N shard processes with consistent-hash client routing.

    Usage mirrors :class:`~repro.serving.server.EvaServer`: register programs,
    then :meth:`start`; every shard registers the same program set.  Requests
    go through :meth:`request` / :meth:`create_session` /
    :meth:`submit_bundle`, which route by ``client_id``, keep one upstream
    connection per (thread, shard), and transparently fail over when a shard
    dies — removing it from the ring so the affected clients get a stable new
    home.

    The arguments below are the cluster's own; every other keyword is a field
    of :class:`ShardConfig`, the recipe each shard process is built from
    (``backend``, ``session_dir``, ``workers``, ``batch_window``,
    ``fairness``, …), kept as :attr:`recipe`.
    """

    def __init__(
        self,
        shards: int = 2,
        replicas: int = 64,
        start_timeout: float = 120.0,
        request_timeout: Optional[float] = 60.0,
        retries: int = 3,
        health_interval: Optional[float] = None,
        wire: str = "auto",
        remote_shards: Optional[List[Tuple[str, int]]] = None,
        scale_policy: Optional[ScalePolicy] = None,
        scale_interval: Optional[float] = None,
        **recipe: Any,
    ) -> None:
        if shards < 1 and not remote_shards:
            raise ServingError("a cluster needs at least one shard")
        if wire not in ("auto", "binary", "json"):
            raise ServingError(f"unknown wire mode {wire!r}")
        if health_interval is not None and health_interval <= 0:
            raise ServingError("health_interval must be positive (or None)")
        if scale_interval is not None and scale_interval <= 0:
            raise ServingError("scale_interval must be positive (or None)")
        self.shards = int(shards)
        #: How every shard process is configured — validated here, before
        #: anything is spawned (an unknown keyword is a ``TypeError``).
        self.recipe = ShardConfig(**recipe)
        self.health_interval = health_interval
        #: Wire mode of the cluster-internal connections to shards (``auto``
        #: negotiates the binary frame protocol; shard listeners always
        #: accept both framings, so this only pins what *this* process
        #: speaks upstream).
        self.wire = str(wire)
        self.start_timeout = float(start_timeout)
        self.request_timeout = request_timeout
        #: Trace id of the most recent traced request (None when untraced).
        self.last_trace_id: Optional[str] = None
        self.retries = max(int(retries), 1)
        #: The shard table (state and generation per index) and the ring it
        #: implies; only :meth:`_transition` changes it.
        self.members = Membership(replicas=replicas)
        #: ``(name, proto bytes, options)`` per registered program.
        self._programs: List[Tuple[str, bytes, Optional[CompilerOptions]]] = []
        self._handles: Dict[int, ShardHandle] = {}
        #: The state lock: the table, the handles and the connection registry.
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Weak so that connections cached by a thread die with the thread
        #: (ServingClient closes its socket on finalization); close() sweeps
        #: whatever is still alive.
        self._all_clients: "weakref.WeakSet[Any]" = weakref.WeakSet()
        #: Persistent per-shard health-probe connections (pinned JSON — probes
        #: never negotiate): probing reuses one connection instead of paying a
        #: fresh TCP connect per probe.  Same shape as a thread's request
        #: cache, ``index -> (generation, connection)``.
        self._probe_clients: Dict[int, Tuple[int, Any]] = {}
        #: Serializes everything that grows membership (rejoin, attach, add):
        #: concurrent rejoins of one index (operator retry racing automation)
        #: must not both respawn the process, nor two joins share an index.
        self._rejoin_lock = threading.Lock()
        #: Remote ``(host, port)`` endpoints attached right after start().
        self._remote_endpoints = [
            (str(host), int(port)) for host, port in remote_shards or []
        ]
        #: The cluster's own telemetry plane: scale decisions, join events —
        #: aggregated into the fleet metrics snapshot next to the shards'.
        self.telemetry = Telemetry(shard="cluster")
        #: Watermark autoscaling (None disables): scale_tick() is the
        #: injectable decision step, the background loop just calls it.
        self.scale_policy = scale_policy
        self.scale_interval = scale_interval
        self._scaler = Autoscaler(scale_policy) if scale_policy is not None else None
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._started = False
        self._closed = False

    @property
    def ring(self) -> ConsistentHashRing:
        """The consistent-hash ring: exactly the live shards."""
        return self.members.ring

    # -- registration ------------------------------------------------------------
    def register(
        self,
        name: str,
        program: Any,
        options: Optional[CompilerOptions] = None,
        lane_width: Optional[int] = None,
    ) -> None:
        """Queue a program for registration on every shard (before start)."""
        if self._started:
            raise ServingError("programs must be registered before the cluster starts")
        from ..core.serialization.proto import serialize

        if lane_width is not None:
            # Folded into the options, as EvaServer.register does it.
            options = replace(options or CompilerOptions(), lane_width=int(lane_width))
        self._programs.append((str(name), serialize(frontend_graph(program)), options))

    # -- lifecycle ---------------------------------------------------------------
    def _transition(
        self, index: int, event: str, generation=None, handle=None
    ) -> Optional[str]:
        """The one place membership changes: one event into the table, under
        the state lock, installing the handle a join or a respawn came with."""
        with self._lock:
            state = self.members.apply(index, event, generation)
            if handle is not None:
                self._handles[index] = handle
            return state

    def _spawn_shards(self, indices: Iterable[int]) -> List[ShardHandle]:
        """Start one shard process per index, side by side, and wait for every
        one to bind its port.  A failed start leaves no process behind (and
        whatever handle an index had stays for a retry)."""
        context = multiprocessing.get_context("spawn")
        deadline = time.monotonic() + self.start_timeout
        pending, handles = [], []
        try:
            for index in indices:
                parent_end, child_end = context.Pipe(duplex=False)
                process = context.Process(
                    target=_shard_main,
                    args=(self.recipe, list(self._programs), index, child_end),
                    name=f"eva-shard-{index}",
                    daemon=True,
                )
                process.start()
                child_end.close()
                pending.append((index, process, parent_end))
            for index, process, parent_end in pending:
                if not parent_end.poll(max(deadline - time.monotonic(), 0.0)):
                    raise ServingError(
                        f"shard {index} did not come up within {self.start_timeout:g}s"
                    )
                try:
                    status, payload = parent_end.recv()
                except EOFError as exc:
                    raise ServingError(
                        f"shard {index} died during startup (no ready message)"
                    ) from exc
                parent_end.close()
                if status != "ok":
                    raise ServingError(f"shard {index} failed to start: {payload}")
                port = int(payload["port"])
                handles.append(ShardHandle(index, process, self.recipe.host, port))
        except BaseException:
            for _index, process, _parent_end in pending:
                if process.is_alive():
                    process.terminate()
            raise
        return handles

    def start(self) -> "EvaCluster":
        """Spawn the shard processes and wait for every one to bind its port."""
        if self._started:
            raise ServingError("the cluster is already started")
        for handle in self._spawn_shards(range(self.shards)):
            self._transition(handle.index, JOIN, handle=handle)
        self._started = True
        try:
            for host, port in self._remote_endpoints:
                self.attach_shard(host, port)
        except BaseException:
            self.close()
            raise
        loops = [("eva-cluster-health", self.health_interval, self.check_health)]
        if self._scaler is not None:
            loops.append(("eva-cluster-scale", self.scale_interval, self.scale_tick))
        for name, interval, step in loops:
            if interval is not None:
                thread = threading.Thread(
                    target=self._run_every,
                    args=(interval, step),
                    name=name,
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        return self

    def _run_every(self, interval: float, step: Callable[[], Any]) -> None:
        """A background loop: periodic health checks, so dead shards leave the
        ring before any client request trips over them, or autoscaler ticks."""
        while not self._stop.wait(interval):
            try:
                step()
            except Exception:  # pragma: no cover - monitoring and scaling must not die
                pass

    def close(self) -> None:
        """Terminate every shard and drop all cached connections."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=10)
        with self._lock:
            clients = list(self._all_clients)
            self._probe_clients.clear()
        for client in clients:
            _close_quietly(client)
        # Remote shards are attached, not owned: closing the front door
        # leaves their processes running wherever they live.
        owned = [
            handle.process for handle in self._handles.values() if not handle.remote
        ]
        for process in owned:
            if process.is_alive():
                process.terminate()
        for process in owned:
            process.join(timeout=10)

    def __enter__(self) -> "EvaCluster":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- routing -----------------------------------------------------------------
    def shard_for(self, client_id: str) -> int:
        """The live shard index ``client_id`` currently routes to."""
        with self._lock:
            return self.members.route(client_id)

    def describe_route(self, client_id: str) -> Dict[str, Any]:
        """Routing info for one client (exposed as the wire ``route`` op)."""
        index = self.shard_for(client_id)
        handle = self._handles[index]
        return {
            "client_id": str(client_id),
            "shard": index,
            "pid": handle.pid,
            "port": handle.port,
        }

    def shard_infos(self) -> List[Dict[str, Any]]:
        """Descriptors of every shard handle, ordered by index."""
        return [self._handles[i].info() for i in sorted(self._handles)]

    def _live_shards(self) -> List[int]:
        with self._lock:
            return self.members.indices(LIVE)

    def mark_dead(self, index: int) -> None:
        """Declare a shard dead: out of the ring (its clients reroute on their
        next request) until a rejoin."""
        self._transition(index, PROCESS_DIED)

    def kill_shard(self, index: int) -> None:
        """Hard-kill one shard (test/chaos hook: SIGKILL, no cleanup)."""
        handle = self._handles.get(index)
        if handle is None:
            raise ServingError(f"no shard {index}")
        if handle.remote:
            raise ServingError(
                f"shard {index} is a remote endpoint ({handle.host}:{handle.port}); "
                "the router has no process to kill — drain it instead"
            )
        handle.process.kill()
        handle.process.join(timeout=10)
        self.mark_dead(index)

    # -- health / drain / rejoin ---------------------------------------------------
    def _ping_shard(self, handle: ShardHandle, timeout: float = 2.0) -> bool:
        """Liveness probe of a shard's TCP front over a persistent connection.

        The steady state pays one ``ping`` round trip per probe instead of a
        fresh TCP connect.  A failure on a connection that was already cached
        retries once on a fresh one before declaring the shard down, so a
        stale socket (e.g. the shard restarted out-of-band) is not mistaken
        for a dead shard.  The result also lands on ``handle.last_probe_ok`` —
        the liveness signal of remote shards.
        """
        index, ok = handle.index, False
        for _attempt in range(2 if index in self._probe_clients else 1):
            try:
                probe = self._connection(self._probe_clients, index, timeout, "json")
                ok = probe.ping()
            except Exception:
                ok = False
            if ok:
                break
            self._drop_connection(self._probe_clients, index)
        handle.last_probe_ok = ok
        return ok

    def _observe(self, index: int, probe: bool) -> Tuple[ShardHandle, int, bool, bool]:
        """One shard as it is now: (handle, generation, alive, responsive).

        The generation read with the handle says which incarnation was
        observed, so the table can ignore a verdict on a process that was
        respawned while we probed it.
        """
        with self._lock:
            handle = self._handles[index]
            generation = self.members.generation.get(index, 0)
        if handle.remote:
            # No process to ask: the probe IS the liveness signal (and
            # without probing, the last probe's verdict stands).
            alive = responsive = self._ping_shard(handle) if probe else handle.alive()
        else:
            alive = handle.alive()
            responsive = alive and (self._ping_shard(handle) if probe else True)
        return handle, generation, alive, responsive

    def check_health(self, probe: bool = True) -> List[Dict[str, Any]]:
        """Probe every shard; demote dead ones from the ring.  Returns a report.

        ``status`` per shard: ``live`` (in the ring, serving), ``drained``
        (process up, removed from the ring by an operator), or ``dead``
        (process gone or unresponsive — its clients reroute).  This is also
        the body of the periodic health loop and the wire ``health`` op.
        """
        report = []
        for index in sorted(self._handles):
            for _attempt in range(2):
                handle, generation, alive, responsive = self._observe(index, probe)
                if responsive:
                    event = PROBE_OK
                else:
                    event = PROBE_FAILED if alive else PROCESS_DIED
                status = self._transition(index, event, generation)
                if handle is self._handles[index]:
                    break
                # Respawned while we probed: the verdict was on the corpse and
                # the table ignored it, so the row describes the successor.
            report.append(
                {
                    "index": index,
                    "mode": handle.mode,
                    "pid": handle.pid,
                    "port": handle.port,
                    "alive": alive,
                    "responsive": responsive,
                    "in_ring": status == LIVE,
                    "status": status,
                }
            )
        return report

    def drain_shard(self, index: int) -> Dict[str, Any]:
        """Remove a live shard from the ring without stopping its process.

        Its clients consistent-hash to new homes on their next request
        (encrypted sessions follow via the shared session store); the process
        keeps running so in-flight work finishes — the graceful half of
        :meth:`kill_shard`, for rolling restarts and maintenance.
        """
        self._transition(index, DRAIN)
        return {"shard": index, "status": "drained", "pid": self._handles[index].pid}

    def rejoin_shard(self, index: int) -> Dict[str, Any]:
        """Return a shard to the ring, respawning its process if it died.

        The complement of :meth:`kill_shard` / :meth:`drain_shard`: a drained
        shard is simply re-added; a dead one is restarted from the cluster's
        registered program set first (same index, fresh process and port).
        Only ~1/N of clients remap onto the rejoined shard, and any of them
        with persisted sessions restore lazily from the shared session store
        — so membership can now grow back, not only shrink.
        """
        if not self._started:
            raise ServingError("the cluster has not been started")
        with self._rejoin_lock:
            # Liveness is checked under the lock: a concurrent rejoin of the
            # same index must find the winner's fresh process and not spawn
            # a duplicate (which would leak until the cluster closes).
            handle = self._handles.get(index)
            if handle is None:
                raise ServingError(f"no shard {index}")
            respawned = False
            if handle.remote:
                # There is no process to respawn: the endpoint must answer a
                # probe before it may return to the ring.
                if not self._ping_shard(handle):
                    raise ServingError(
                        f"remote shard {index} at {handle.host}:{handle.port} "
                        "is not responding; rejoin it once it is back up"
                    )
            elif not handle.alive():
                (handle,) = self._spawn_shards([index])
                respawned = True
            # A respawn bumps the generation: connections cached against the
            # dead process are dropped lazily, by every thread.
            event = REJOIN_RESPAWNED if respawned else REJOIN
            self._transition(index, event, handle=handle)
        return {
            "shard": index,
            "status": "rejoined",
            "respawned": respawned,
            "pid": handle.pid,
            "port": handle.port,
            "mode": handle.mode,
        }

    def attach_shard(self, host: str, port: int) -> Dict[str, Any]:
        """Attach a running remote shard at ``host:port`` to the ring.

        The endpoint (any :class:`~repro.serving.netserver.EvaTcpServer`,
        typically ``repro.cli serve`` on another host) must answer a probe
        and serve every program registered with this cluster.  Attaching a
        ``host:port`` that is already known simply returns that shard to the
        ring (the live counterpart of :meth:`rejoin_shard` for endpoints the
        router cannot respawn).  Exposed on the wire as the ``join`` op.
        """
        if not self._started:
            raise ServingError("the cluster has not been started")
        host, port = str(host), int(port)
        from .netserver import ServingClient

        try:
            with ServingClient(
                host, port, timeout=self.request_timeout, wire="json"
            ) as probe:
                if not probe.ping():
                    raise TransportError("endpoint did not answer the ping")
                remote_programs = set(probe.programs())
        except Exception as exc:
            raise ServingError(f"cannot attach shard at {host}:{port}: {exc}") from exc
        registered = {name for name, _data, _options in self._programs}
        missing = sorted(registered - remote_programs)
        if missing:
            raise ServingError(
                f"remote shard at {host}:{port} does not serve the cluster's "
                f"registered programs (missing {missing}); start it with the "
                "same program set"
            )
        with self._rejoin_lock:
            endpoints = {
                (h.host, h.port): h.index for h in self._handles.values() if h.remote
            }
            index = endpoints.get((host, port), self._next_index())
            # A fresh handle either way: it just answered, so it starts live.
            self._transition(index, JOIN, handle=ShardHandle(index, None, host, port))
        self.telemetry.inc("cluster.shards.joined")
        return {
            "shard": index,
            "status": "joined",
            "mode": "remote",
            "host": host,
            "port": port,
        }

    def _next_index(self) -> int:
        return max(self._handles, default=self.shards - 1) + 1

    def add_shard(self) -> Dict[str, Any]:
        """Spawn one brand-new local shard and add it to the ring.

        The scale-up primitive for when no parked (drained or dead) shard is
        available to rejoin: allocates the next free index, spawns a fresh
        process with the cluster's registered program set, and waits for it
        to bind before ring membership changes.
        """
        if not self._started:
            raise ServingError("the cluster has not been started")
        with self._rejoin_lock:
            index = self._next_index()
            (handle,) = self._spawn_shards([index])
            self._transition(index, JOIN, handle=handle)
        return {
            "shard": index,
            "status": "added",
            "mode": "local",
            "pid": handle.pid,
            "port": handle.port,
        }

    # -- autoscaling ---------------------------------------------------------------
    def _observed_queue_depth(self) -> float:
        """Fleet-wide queue depth: queued jobs summed over live shards."""
        return sum(
            float((stats.get("engine") or {}).get("queued", 0) or 0)
            for _index, stats in self._each_live(lambda client: client.stats())
        )

    def scale_tick(
        self, queue_depth: Optional[float] = None, now: Optional[float] = None
    ):
        """One autoscaler observation; returns the action taken (or None).

        ``queue_depth`` defaults to the observed fleet-wide depth and ``now``
        to the monotonic clock; tests (and operators simulating load) may
        inject both.  The decision is
        :meth:`~repro.serving.membership.Autoscaler.tick`'s — two-sided
        hysteresis and a cooldown, so a load oscillating across a watermark
        cannot flap membership; an action that fails starts no cooldown.
        """
        if self._scaler is None:
            raise ServingError("the cluster has no scale policy")
        if queue_depth is None:
            queue_depth = self._observed_queue_depth()
        queue_depth = float(queue_depth)
        live = self._live_shards()
        self.telemetry.set_gauge("cluster.scale.queue_depth", queue_depth)
        self.telemetry.set_gauge("cluster.scale.live_shards", len(live))
        now = time.monotonic() if now is None else now
        decision = self._scaler.tick(queue_depth, len(live), now)
        if decision is None:
            return None
        action = self._scale(decision, live)
        if action is None:
            self._scaler.retract()
        return action

    def _scale(self, decision: str, live: List[int]) -> Optional[Dict[str, Any]]:
        """Carry out one autoscaler decision; None when the action failed.

        Up: rejoin a parked local shard, else spawn a new one.  Down: drain
        (not kill) the highest-index live *local* shard, which keeps the
        process parked so the next scale-up is a cheap rejoin.  Remote shards
        are never scaled down — the router did not provision them, so it does
        not decommission them.
        """
        with self._lock:
            pool = live if decision == "down" else self.members.indices(DRAINED, DEAD)
            local = [index for index in pool if not self._handles[index].remote]
        try:
            if decision == "down":
                if not local:
                    return None
                result, reason = self.drain_shard(max(local)), "drain"
            elif local:
                result, reason = self.rejoin_shard(local[0]), "rejoin"
            else:
                result, reason = self.add_shard(), "spawn"
        except ServingError:
            # A dead shard that fails to respawn, a drain of what became the
            # last ring member: the next full streak retries.
            return None
        self.telemetry.inc(f"cluster.scale.{decision}", reason=reason)
        return dict(result, action=decision, reason=reason)

    # -- request plumbing ---------------------------------------------------------
    def _connection(
        self, cache: Dict[int, Tuple[int, Any]], index: int, timeout, wire: str
    ):
        """The connection to shard ``index`` held in ``cache`` (created on demand).

        The one lookup behind both connection caches — a thread's request
        connections and the shared probe connections.  Entries are kept per
        shard *generation*: a respawned shard bumps its generation, so a
        connection to the dead predecessor is dropped instead of reused.
        """
        from .netserver import ServingClient

        with self._lock:
            handle = self._handles[index]
            generation = self.members.generation.get(index, 0)
            cached = cache.get(index)
        if cached is not None and cached[0] == generation:
            return cached[1]
        client = ServingClient(handle.host, handle.port, timeout=timeout, wire=wire)
        self._drop_connection(cache, index, (generation, client))
        return client

    def _drop_connection(
        self, cache: Dict[int, Tuple[int, Any]], index: int, successor=None
    ) -> None:
        """Close ``cache[index]`` and put ``successor`` (if any) in its place —
        one step, so of two threads that miss the same shared (probe) entry
        the loser's connection is closed, not leaked."""
        with self._lock:
            cached = cache.pop(index, None)
            if cached is not None:
                self._all_clients.discard(cached[1])
            if successor is not None:
                cache[index] = successor
                self._all_clients.add(successor[1])
        if cached is not None:
            _close_quietly(cached[1])

    def _thread_clients(self) -> Dict[int, Tuple[int, Any]]:
        cache = getattr(self._local, "clients", None)
        if cache is None:
            cache = self._local.clients = {}
        return cache

    def _client_for(self, index: int):
        """This thread's cached connection to one shard."""
        return self._connection(
            self._thread_clients(), index, self.request_timeout, self.wire
        )

    def _note_failure(self, index: int) -> None:
        """A request to ``index`` failed at the transport level.

        A dead process is removed from the ring so its clients reroute; a
        live process (transient connection failure) stays — the retry loop
        reconnects to it.  A remote shard has no process to ask; one failed
        probe after a transport error is the eviction signal.
        """
        self._drop_connection(self._thread_clients(), index)
        handle = self._handles.get(index)
        if handle is None:
            return
        _handle, generation, alive, _ok = self._observe(index, probe=handle.remote)
        event = TRANSPORT_FAILURE if alive else PROCESS_DIED
        self._transition(index, event, generation)

    def _call(self, client_id: str, fn: Callable[[Any], Any]) -> Any:
        """Route ``client_id``, run ``fn(connection)``, fail over on dead shards."""
        if not self._started:
            raise ServingError("the cluster has not been started")
        last_error: Optional[BaseException] = None
        for _attempt in range(self.retries + 1):
            index = self.shard_for(client_id)
            try:
                return fn(self._client_for(index))
            except _FAILOVER_ERRORS as exc:
                last_error = exc
                self._note_failure(index)
        raise ServingError(
            f"request for client {client_id!r} failed after "
            f"{self.retries + 1} attempts: {last_error}"
        )

    def _each_live(self, fn: Callable[[Any], Any]) -> List[Tuple[int, Any]]:
        """``(index, fn(connection))`` per live shard; a shard whose transport
        fails is noted (and leaves the ring if it is gone) and skipped."""
        results = []
        for index in self._live_shards():
            try:
                results.append((index, fn(self._client_for(index))))
            except _FAILOVER_ERRORS:
                self._note_failure(index)
        return results

    # -- client API ----------------------------------------------------------------
    def request(
        self,
        name: str,
        inputs: Dict[str, Any],
        client_id: str = "default",
        output_size: Optional[int] = None,
        trace: bool = False,
        deadline_ms: Optional[float] = None,
        slo_class: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Plaintext request: routed to the client's shard, decrypted outputs.

        With ``trace`` the trace id is minted *here*, before the retry loop,
        so a request that fails over after a shard death keeps one id across
        attempts — the spans of the successful attempt land on the new shard
        under the same trace.  The minted id is kept as ``last_trace_id`` so
        the caller can look the trace up afterwards.  ``deadline_ms`` and
        ``slo_class`` ride the envelope to the owning shard unchanged.
        """
        trace_id = new_trace_id() if trace else None
        self.last_trace_id = trace_id
        return self._call(
            client_id,
            lambda client: client.submit(
                name,
                inputs,
                client_id=client_id,
                output_size=output_size,
                trace=trace,
                trace_id=trace_id,
                deadline_ms=deadline_ms,
                slo_class=slo_class,
            ),
        )

    def create_session(
        self, name: str, client_kit: Any, client_id: Optional[str] = None
    ) -> Dict[str, Any]:
        """Register a client's evaluation keys on its shard (persisted when
        the cluster has a session directory)."""
        client_id = client_id or getattr(client_kit, "client_id", "default")
        return self._call(
            client_id,
            lambda client: client.create_session(name, client_kit, client_id=client_id),
        )

    def submit_bundle(
        self,
        name: str,
        bundle_wire: Dict[str, Any],
        client_id: str = "default",
        trace: bool = False,
        deadline_ms: Optional[float] = None,
        slo_class: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Pre-encrypted request; returns wire-encoded ciphertext outputs."""
        trace_id = new_trace_id() if trace else None
        self.last_trace_id = trace_id
        return self._call(
            client_id,
            lambda client: client.submit_bundle(
                name,
                bundle_wire,
                client_id=client_id,
                trace=trace,
                trace_id=trace_id,
                deadline_ms=deadline_ms,
                slo_class=slo_class,
            ),
        )

    def request_encrypted(
        self,
        name: str,
        client_kit: Any,
        inputs: Dict[str, Any],
        client_id: Optional[str] = None,
        trace: bool = False,
        deadline_ms: Optional[float] = None,
        slo_class: Optional[str] = None,
    ) -> Dict[str, Any]:
        """End-to-end encrypted request through the client's shard.

        With ``trace`` the bundle submission is traced under one id (minted
        before the failover retry loop, like :meth:`request`), available
        afterwards as ``last_trace_id``.  SLO fields ride the envelope
        identically to the plaintext path.
        """
        client_id = client_id or getattr(client_kit, "client_id", "default")
        bundle = client_kit.encrypt_inputs(inputs)
        reply = self.submit_bundle(
            name,
            client_kit.bundle_to_wire(bundle),
            client_id=client_id,
            trace=trace,
            deadline_ms=deadline_ms,
            slo_class=slo_class,
        )
        return client_kit.decrypt_outputs(client_kit.outputs_from_wire(reply))

    # -- introspection -------------------------------------------------------------
    def programs(self) -> List[str]:
        """Registered program names (identical on every shard)."""
        return self._call("__cluster-meta__", lambda client: client.programs())

    def stats(self) -> Dict[str, Any]:
        """Cluster-level view plus the per-shard server stats of live shards."""
        with self._lock:
            live = self.members.indices(LIVE)
            dead = self.members.indices(DEAD)
            drained = self.members.indices(DRAINED)
        fairness = self.recipe.fairness
        per_shard = self._each_live(lambda client: client.stats())
        return {
            "shards": self.shards,
            "live": live,
            "dead": dead,
            "drained": drained,
            "session_dir": self.recipe.session_dir,
            "artifact_dir": self.recipe.artifact_dir,
            "health_interval": self.health_interval,
            "fairness": fairness is not None and fairness.enabled,
            "per_shard": {str(index): stats for index, stats in per_shard},
        }

    # -- telemetry fan-out ---------------------------------------------------------
    # Each view takes extra telemetry ``planes`` to fold in beside the shards'
    # (the TCP router passes its own when serving the wire op).
    def metrics_snapshot(self, planes: Sequence[Telemetry] = ()) -> Dict[str, Any]:
        """The cluster-wide snapshot: shard registries aggregated into one.

        Every series appears per-shard (labeled ``shard=<i>``) and summed
        into an unlabeled aggregate, with histogram percentiles recomputed
        from the merged buckets.  The cluster's own control-plane registry
        (``cluster.scale.*``, ``cluster.shards.joined``) rides along under
        ``shard=cluster``, and each of ``planes`` under its own label.
        """
        snapshots = {
            str(index): reply["metrics"]
            for index, reply in self._each_live(lambda client: client.metrics())
        }
        for plane in (self.telemetry, *planes):
            snapshots[str(plane.shard)] = plane.registry.snapshot()
        return aggregate_snapshots(snapshots)

    def trace_of(
        self, trace_id: str, planes: Sequence[Telemetry] = ()
    ) -> Optional[Dict[str, Any]]:
        """One trace merged across shards (spans in timestamp order)."""
        replies = self._each_live(lambda client: client.trace_of(trace_id))
        views = [view for _index, view in replies]
        views.extend(plane.trace_of(trace_id) for plane in planes)
        return merge_traces(views)

    def slow_requests(
        self, limit: Optional[int] = None, planes: Sequence[Telemetry] = ()
    ) -> List[Dict[str, Any]]:
        """Cluster-wide slow requests, newest first."""
        records: List[Dict[str, Any]] = []
        for _index, shard_records in self._each_live(lambda client: client.slow(limit)):
            records.extend(shard_records)
        for plane in planes:
            records.extend(plane.slow(limit))
        records.sort(key=lambda record: record.get("ts", 0.0), reverse=True)
        if limit is not None:
            records = records[: max(int(limit), 0)]
        return records
