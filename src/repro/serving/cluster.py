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
"""

from __future__ import annotations

import hashlib
import multiprocessing
import threading
import time
import weakref
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import tomlcompat
from ..core.compiler import CompilerOptions
from ..core.ir import Program
from ..errors import EvaError, ServingError, TransportError
from .quotas import FairnessPolicy
from .telemetry import Telemetry, aggregate_snapshots, merge_traces, new_trace_id

#: Transport-level failures that justify failing over to another shard.
_FAILOVER_ERRORS = (TransportError, OSError)


# -- consistent hashing ------------------------------------------------------------
def _ring_hash(data: str) -> int:
    return int.from_bytes(hashlib.sha256(data.encode("utf-8")).digest()[:8], "big")


class ConsistentHashRing:
    """Classic consistent-hash ring with virtual nodes.

    Each node is placed at ``replicas`` pseudo-random points of a 64-bit hash
    circle; a key routes to the first node point at or after its own hash.
    Removing a node only remaps the keys that routed to it, and adding one
    claims ~``K/N`` keys from its neighbours — the property the serving layer
    relies on so that shard membership changes do not flush every client's
    warm caches.
    """

    def __init__(self, nodes: Tuple[int, ...] = (), replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError("the ring needs at least one replica per node")
        self.replicas = replicas
        self._points: List[Tuple[int, int]] = []  # sorted (hash, node)
        self._nodes: set = set()
        for node in nodes:
            self.add(node)

    def add(self, node: int) -> None:
        """Place a node on the ring (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for replica in range(self.replicas):
            self._points.append((_ring_hash(f"{node}#{replica}"), node))
        self._points.sort()

    def remove(self, node: int) -> None:
        """Remove a node and its virtual points from the ring (idempotent)."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [point for point in self._points if point[1] != node]

    def route(self, key: Any) -> int:
        """The node responsible for ``key``; raises when the ring is empty."""
        if not self._points:
            raise LookupError("the hash ring has no nodes")
        position = bisect_right(self._points, (_ring_hash(str(key)), -1))
        if position == len(self._points):
            position = 0
        return self._points[position][1]

    @property
    def nodes(self) -> List[int]:
        """The ring's current nodes, sorted."""
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: int) -> bool:
        return node in self._nodes


# -- shard processes ---------------------------------------------------------------
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

    def build(self):
        """Instantiate the backend this spec describes."""
        from ..backend import MockBackend

        if self.name == "mock":
            return MockBackend(seed=self.seed, op_latency=self.op_latency)
        if self.name == "mock-exact":
            return MockBackend(
                error_model="none", seed=self.seed, op_latency=self.op_latency
            )
        if self.name == "ckks":
            if self.op_latency:
                raise EvaError("op_latency is a mock-backend knob")
            from ..backend import CkksBackend

            return CkksBackend(seed=self.seed)
        raise EvaError(
            f"unknown backend {self.name!r} (choose mock, mock-exact, or ckks)"
        )


@dataclass
class _RegisteredProgram:
    """One program as shipped to every shard (serialized for pickling)."""

    name: str
    data: bytes  # proto wire format of the source graph
    options: Optional[CompilerOptions]
    lane_width: Optional[int]


@dataclass
class ShardConfig:
    """Everything a shard process needs to come up (must stay picklable)."""

    index: int
    programs: List[_RegisteredProgram]
    backend: BackendSpec
    session_dir: Optional[str]
    host: str = "127.0.0.1"
    workers: int = 2
    queue_size: int = 256
    max_batch: int = 8
    batch_window: float = 0.0
    executor_threads: int = 1
    session_ttl: Optional[float] = None
    artifact_dir: Optional[str] = None
    fairness: Optional[FairnessPolicy] = None
    #: Requests slower than this (seconds, end-to-end in the shard) emit one
    #: structured WARNING line and join the shard's slow ring buffer.
    slow_threshold: float = 1.0
    #: Structured-logging switches (``serve --log-json`` / ``--log-level``):
    #: applied inside the spawned interpreter, where the parent's logging
    #: configuration does not exist.
    log_json: bool = False
    log_level: str = "INFO"


def _shard_main(config: ShardConfig, ready) -> None:  # pragma: no cover - subprocess
    """Entry point of one shard process: a full EvaServer behind TCP.

    Runs in a fresh ``spawn``-ed interpreter.  Reports its bound port (or the
    startup error) through the ``ready`` pipe, then serves forever until the
    parent terminates it.
    """
    try:
        from ..core.serialization.proto import deserialize
        from .artifacts import ArtifactCache
        from .netserver import EvaTcpServer
        from .server import EvaServer
        from .store import SessionStore
        from .telemetry import Telemetry, configure_logging

        configure_logging(json_logs=config.log_json, level=config.log_level)
        session_store = None
        if config.session_dir:
            session_store = SessionStore(config.session_dir, ttl=config.session_ttl)
            # GC expired records at startup so a long-lived shared directory
            # does not grow unboundedly across restarts.
            session_store.prune()
        server = EvaServer(
            backend=config.backend.build(),
            workers=config.workers,
            queue_size=config.queue_size,
            max_batch=config.max_batch,
            batch_window=config.batch_window,
            executor_threads=config.executor_threads,
            session_store=session_store,
            artifact_cache=(
                ArtifactCache(config.artifact_dir) if config.artifact_dir else None
            ),
            fairness=config.fairness,
            telemetry=Telemetry(
                slow_threshold=config.slow_threshold, shard=config.index
            ),
        )
        for spec in config.programs:
            server.register(
                spec.name,
                deserialize(spec.data, name=spec.name),
                options=spec.options,
                lane_width=spec.lane_width,
            )
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
    started_at: float = field(default_factory=time.time)
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
        """Whether the shard looked alive at the last probe (remote) or is running (local)."""
        if self.remote:
            return self.last_probe_ok
        return self.process.is_alive()

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


@dataclass
class ScalePolicy:
    """Watermark autoscaling knobs of an :class:`EvaCluster`.

    The autoscaler watches the fleet-wide queue depth (summed over live
    shards).  ``observations`` consecutive ticks at or above
    ``high_queue_depth`` scale **up** (rejoining a parked shard before
    spawning a new one); the same number at or below ``low_queue_depth``
    scale **down** (draining, never killing, a local shard).  ``cooldown``
    seconds must pass between actions.  The two-sided hysteresis plus the
    cooldown keeps an oscillating load from flapping membership — crossing a
    watermark once does nothing.
    """

    high_queue_depth: float = 32.0
    low_queue_depth: float = 4.0
    min_shards: int = 1
    max_shards: int = 8
    #: Consecutive ticks a watermark must stay breached before acting.
    observations: int = 3
    #: Seconds that must elapse between two scaling actions.
    cooldown: float = 30.0

    def __post_init__(self) -> None:
        if self.low_queue_depth < 0 or self.high_queue_depth <= self.low_queue_depth:
            raise ValueError(
                "watermarks must satisfy 0 <= low_queue_depth < high_queue_depth"
            )
        if self.min_shards < 1:
            raise ValueError("min_shards must be at least 1")
        if self.max_shards < self.min_shards:
            raise ValueError("max_shards must be >= min_shards")
        if self.observations < 1:
            raise ValueError("observations must be at least 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")


# -- cluster config files ----------------------------------------------------------
def load_cluster_config(path: Any) -> Dict[str, Any]:
    """Parse a cluster TOML config into constructor-ready pieces.

    The file has up to three sections::

        [cluster]            # EvaCluster keyword arguments
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
    """

    def __init__(
        self,
        shards: int = 2,
        backend: Optional[BackendSpec] = None,
        session_dir: Optional[str] = None,
        replicas: int = 64,
        workers: int = 2,
        queue_size: int = 256,
        max_batch: int = 8,
        batch_window: float = 0.0,
        executor_threads: int = 1,
        host: str = "127.0.0.1",
        start_timeout: float = 120.0,
        request_timeout: Optional[float] = 60.0,
        retries: int = 3,
        session_ttl: Optional[float] = None,
        artifact_dir: Optional[str] = None,
        fairness: Optional[FairnessPolicy] = None,
        health_interval: Optional[float] = None,
        slow_threshold: float = 1.0,
        log_json: bool = False,
        log_level: str = "INFO",
        wire: str = "auto",
        remote_shards: Optional[List[Tuple[str, int]]] = None,
        scale_policy: Optional[ScalePolicy] = None,
        scale_interval: Optional[float] = None,
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
        self.backend = backend or BackendSpec()
        self.session_dir = str(session_dir) if session_dir else None
        self.session_ttl = session_ttl
        #: Shared compiled-artifact directory: each shard's registry loads
        #: programs (and lane variants) its siblings already compiled.
        self.artifact_dir = str(artifact_dir) if artifact_dir else None
        #: Per-client quotas, enforced twice: at the router (before a request
        #: crosses to a shard) and at every shard's job engine.
        self.fairness = fairness
        self.health_interval = health_interval
        #: Shard-side slow-request threshold and structured-logging switches,
        #: shipped to every shard process via its :class:`ShardConfig`.
        self.slow_threshold = float(slow_threshold)
        self.log_json = bool(log_json)
        self.log_level = str(log_level)
        #: Wire mode of the cluster-internal connections to shards (``auto``
        #: negotiates the binary frame protocol; shard listeners always
        #: accept both framings, so this only pins what *this* process
        #: speaks upstream).
        self.wire = str(wire)
        self.host = host
        self.workers = workers
        self.queue_size = queue_size
        self.max_batch = max_batch
        self.batch_window = batch_window
        self.executor_threads = executor_threads
        self.start_timeout = float(start_timeout)
        self.request_timeout = request_timeout
        #: Trace id of the most recent traced request (None when untraced).
        self.last_trace_id: Optional[str] = None
        self.retries = max(int(retries), 1)
        self.ring = ConsistentHashRing(replicas=replicas)
        self._programs: List[_RegisteredProgram] = []
        self._handles: Dict[int, ShardHandle] = {}
        self._dead: List[int] = []
        self._drained: List[int] = []
        #: Bumped whenever a shard index is respawned on a new port, so
        #: thread-local connections cached against the old process are
        #: discarded instead of reused.
        self._generations: Dict[int, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Weak so that connections cached by a thread die with the thread
        #: (ServingClient closes its socket on finalization); close() sweeps
        #: whatever is still alive.
        self._all_clients: "weakref.WeakSet[Any]" = weakref.WeakSet()
        self._health_stop = threading.Event()
        self._health_thread: Optional[threading.Thread] = None
        #: Serializes rejoin_shard: concurrent rejoins of one index (operator
        #: retry racing automation) must not both respawn the process.
        self._rejoin_lock = threading.Lock()
        #: Remote ``(host, port)`` endpoints attached right after start().
        self._remote_endpoints: List[Tuple[str, int]] = [
            (str(host), int(port)) for host, port in (remote_shards or [])
        ]
        #: Persistent per-shard health-probe connections, keyed by index and
        #: guarded against respawns by the shard's generation — probing reuses
        #: one pinned-JSON connection instead of paying a fresh TCP connect
        #: (and hello) per probe.
        self._probe_lock = threading.Lock()
        self._probe_clients: Dict[int, Tuple[int, Any]] = {}
        #: The cluster's own telemetry plane: scale decisions, join events —
        #: aggregated into the fleet metrics snapshot next to the shards'.
        self.telemetry = Telemetry(shard="cluster")
        #: Watermark autoscaling (None disables): scale_tick() is the
        #: injectable decision step, the background loop just calls it.
        self.scale_policy = scale_policy
        self.scale_interval = scale_interval
        self._scale_above = 0
        self._scale_below = 0
        self._last_scale_at: Optional[float] = None
        self._scale_stop = threading.Event()
        self._scale_thread: Optional[threading.Thread] = None
        self._started = False
        self._closed = False

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
        graph = getattr(program, "graph", program)
        if not isinstance(graph, Program):
            raise ServingError(f"cannot register {type(program).__name__} as a program")
        from ..core.serialization.proto import serialize

        self._programs.append(
            _RegisteredProgram(
                name=str(name),
                data=serialize(graph),
                options=options,
                lane_width=lane_width,
            )
        )

    # -- lifecycle ---------------------------------------------------------------
    def _shard_config(self, index: int) -> ShardConfig:
        return ShardConfig(
            index=index,
            programs=list(self._programs),
            backend=self.backend,
            session_dir=self.session_dir,
            host=self.host,
            workers=self.workers,
            queue_size=self.queue_size,
            max_batch=self.max_batch,
            batch_window=self.batch_window,
            executor_threads=self.executor_threads,
            session_ttl=self.session_ttl,
            artifact_dir=self.artifact_dir,
            fairness=self.fairness,
            slow_threshold=self.slow_threshold,
            log_json=self.log_json,
            log_level=self.log_level,
        )

    def _launch_shard(self, index: int):
        """Fork one shard process; returns (process, ready-pipe)."""
        context = multiprocessing.get_context("spawn")
        parent_end, child_end = context.Pipe(duplex=False)
        process = context.Process(
            target=_shard_main,
            args=(self._shard_config(index), child_end),
            name=f"eva-shard-{index}",
            daemon=True,
        )
        process.start()
        child_end.close()
        return process, parent_end

    def _await_shard(self, index: int, process, parent_end, deadline: float) -> ShardHandle:
        """Wait for one launched shard's ready message; returns its handle."""
        remaining = max(deadline - time.monotonic(), 0.0)
        if not parent_end.poll(remaining):
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
        return ShardHandle(
            index=index,
            process=process,
            host=self.host,
            port=int(payload["port"]),
        )

    def start(self) -> "EvaCluster":
        """Spawn the shard processes and wait for every one to bind its port."""
        if self._started:
            raise ServingError("the cluster is already started")
        pending = [
            (index, *self._launch_shard(index)) for index in range(self.shards)
        ]
        deadline = time.monotonic() + self.start_timeout
        try:
            for index, process, parent_end in pending:
                self._handles[index] = self._await_shard(
                    index, process, parent_end, deadline
                )
                self.ring.add(index)
        except BaseException:
            for _index, process, _conn in pending:
                if process.is_alive():
                    process.terminate()
            raise
        self._started = True
        if self._remote_endpoints:
            try:
                for host, port in self._remote_endpoints:
                    self.attach_shard(host, port)
            except BaseException:
                self.close()
                raise
        if self.health_interval is not None:
            self._health_thread = threading.Thread(
                target=self._health_loop, name="eva-cluster-health", daemon=True
            )
            self._health_thread.start()
        if self.scale_policy is not None and self.scale_interval is not None:
            self._scale_thread = threading.Thread(
                target=self._scale_loop, name="eva-cluster-scale", daemon=True
            )
            self._scale_thread.start()
        return self

    def close(self) -> None:
        """Terminate every shard and drop all cached connections."""
        if self._closed:
            return
        self._closed = True
        self._health_stop.set()
        self._scale_stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=10)
        if self._scale_thread is not None:
            self._scale_thread.join(timeout=10)
        with self._lock:
            clients = list(self._all_clients)
        with self._probe_lock:
            clients.extend(client for _gen, client in self._probe_clients.values())
            self._probe_clients.clear()
        for client in clients:
            try:
                client.close()
            except Exception:
                pass
        # Remote shards are attached, not owned: closing the front door
        # leaves their processes running wherever they live.
        for handle in self._handles.values():
            if handle.process is not None and handle.process.is_alive():
                handle.process.terminate()
        for handle in self._handles.values():
            if handle.process is not None:
                handle.process.join(timeout=10)

    def __enter__(self) -> "EvaCluster":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- routing -----------------------------------------------------------------
    def shard_for(self, client_id: str) -> int:
        """The live shard index ``client_id`` currently routes to."""
        with self._lock:
            try:
                return self.ring.route(str(client_id))
            except LookupError as exc:
                raise ServingError("no live shards in the cluster") from exc

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

    def mark_dead(self, index: int) -> None:
        """Remove a shard from the ring (its clients reroute on next request)."""
        with self._lock:
            if index in self.ring:
                self.ring.remove(index)
                self._dead.append(index)

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

        The probe connection is cached per shard index (pinned JSON — probes
        never negotiate) and keyed by the shard's generation, so the steady
        state pays one ``ping`` round trip per probe instead of a fresh TCP
        connect and hello.  A probe failure on the cached connection retries
        once on a fresh one before declaring the shard down, so a stale
        socket (e.g. the shard restarted out-of-band) is not mistaken for a
        dead shard.  The result also lands on ``handle.last_probe_ok`` — the
        liveness signal of remote shards.
        """
        ok = self._probe_once(handle, timeout)
        handle.last_probe_ok = ok
        return ok

    def _probe_once(self, handle: ShardHandle, timeout: float) -> bool:
        from .netserver import ServingClient

        index = handle.index
        with self._lock:
            generation = self._generations.get(index, 0)
        with self._probe_lock:
            cached = self._probe_clients.get(index)
        if cached is not None and cached[0] == generation:
            try:
                return cached[1].ping()
            except Exception:
                pass  # stale or broken: fall through to a fresh connection
        self._drop_probe_client(index)
        try:
            client = ServingClient(
                handle.host, handle.port, timeout=timeout, wire="json"
            )
            ok = client.ping()
        except Exception:
            return False
        if not ok:
            try:
                client.close()
            except Exception:
                pass
            return False
        with self._probe_lock:
            stale = self._probe_clients.get(index)
            self._probe_clients[index] = (generation, client)
        if stale is not None:
            try:
                stale[1].close()
            except Exception:
                pass
        return True

    def _drop_probe_client(self, index: int) -> None:
        with self._probe_lock:
            cached = self._probe_clients.pop(index, None)
        if cached is not None:
            try:
                cached[1].close()
            except Exception:
                pass

    def check_health(self, probe: bool = True) -> List[Dict[str, Any]]:
        """Probe every shard; demote dead ones from the ring.  Returns a report.

        ``status`` per shard: ``live`` (in the ring, serving), ``drained``
        (process up, removed from the ring by an operator), or ``dead``
        (process gone or unresponsive — its clients reroute).  This is also
        the body of the periodic health loop and the wire ``health`` op.
        """
        report = []
        for index in sorted(self._handles):
            handle = self._handles[index]
            if handle.remote:
                # No process to ask: the probe IS the liveness signal (and
                # without probing, the last probe's verdict stands).
                responsive = self._ping_shard(handle) if probe else handle.alive()
                alive = responsive
            else:
                alive = handle.alive()
                responsive = alive and (self._ping_shard(handle) if probe else True)
            if not responsive and self._handles.get(index) is not handle:
                # The shard was respawned while we probed its predecessor;
                # judge the *current* process, not the corpse — otherwise a
                # stale probe would eject a freshly rejoined shard with no
                # automatic path back into the ring.
                handle = self._handles[index]
                alive = handle.alive()
                responsive = alive and (self._ping_shard(handle) if probe else True)
            with self._lock:
                in_ring = index in self.ring
                drained = index in self._drained
                if drained and not alive:
                    # A parked shard whose process died is dead, not
                    # "drained": monitoring reading stats() must see it in
                    # the dead list or no alert ever fires.
                    self._drained.remove(index)
                    if index not in self._dead:
                        self._dead.append(index)
                    drained = False
            if in_ring and not responsive:
                self.mark_dead(index)
                in_ring = False
            if drained and alive:
                status = "drained"
            elif in_ring and responsive:
                status = "live"
            else:
                status = "dead"
            report.append(
                {
                    "index": index,
                    "mode": handle.mode,
                    "pid": handle.pid,
                    "port": handle.port,
                    "alive": alive,
                    "responsive": responsive,
                    "in_ring": in_ring,
                    "status": status,
                }
            )
        return report

    def _health_loop(self) -> None:
        """Periodic health checks so dead shards leave the ring proactively
        (before any client request trips over them)."""
        while not self._health_stop.wait(self.health_interval):
            try:
                self.check_health()
            except Exception:  # pragma: no cover - monitoring must not die
                pass

    def drain_shard(self, index: int) -> Dict[str, Any]:
        """Remove a live shard from the ring without stopping its process.

        Its clients consistent-hash to new homes on their next request
        (encrypted sessions follow via the shared session store); the process
        keeps running so in-flight work finishes — the graceful half of
        :meth:`kill_shard`, for rolling restarts and maintenance.
        """
        handle = self._handles.get(index)
        if handle is None:
            raise ServingError(f"no shard {index}")
        with self._lock:
            if index in self.ring:
                if len(self.ring) == 1:
                    # Draining the last live shard is a full outage, not
                    # maintenance; demand an explicit kill instead.
                    raise ServingError(
                        f"refusing to drain shard {index}: it is the last "
                        "shard in the ring (rejoin another shard first)"
                    )
                self.ring.remove(index)
                if index not in self._drained:
                    self._drained.append(index)
            elif index not in self._drained:
                raise ServingError(f"shard {index} is not in the ring (already dead?)")
        return {"shard": index, "status": "drained", "pid": handle.pid}

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
            # Re-check liveness under the lock: a concurrent rejoin of the
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
                process, parent_end = self._launch_shard(index)
                deadline = time.monotonic() + self.start_timeout
                try:
                    handle = self._await_shard(index, process, parent_end, deadline)
                except BaseException:
                    # A failed respawn must not leak the half-started
                    # process (start() gives its pending shards the same
                    # courtesy); the old dead handle stays for a retry.
                    if process.is_alive():
                        process.terminate()
                    raise
                self._handles[index] = handle
                respawned = True
        with self._lock:
            if respawned:
                # Old cached connections point at the dead process; the
                # generation bump makes every thread reconnect lazily.
                self._generations[index] = self._generations.get(index, 0) + 1
            if index in self._dead:
                self._dead.remove(index)
            if index in self._drained:
                self._drained.remove(index)
            self.ring.add(index)
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
            raise ServingError(
                f"cannot attach shard at {host}:{port}: {exc}"
            ) from exc
        missing = sorted(
            {spec.name for spec in self._programs} - remote_programs
        )
        if missing:
            raise ServingError(
                f"remote shard at {host}:{port} does not serve the cluster's "
                f"registered programs (missing {missing}); start it with the "
                "same program set"
            )
        with self._rejoin_lock, self._lock:
            for handle in self._handles.values():
                if handle.remote and (handle.host, handle.port) == (host, port):
                    index = handle.index
                    handle.last_probe_ok = True
                    break
            else:
                index = max(self._handles, default=self.shards - 1) + 1
                self._handles[index] = ShardHandle(
                    index=index, process=None, host=host, port=port
                )
            if index in self._dead:
                self._dead.remove(index)
            if index in self._drained:
                self._drained.remove(index)
            self.ring.add(index)
        self.telemetry.inc("cluster.shards.joined")
        return {
            "shard": index,
            "status": "joined",
            "mode": "remote",
            "host": host,
            "port": port,
        }

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
            with self._lock:
                index = max(self._handles, default=self.shards - 1) + 1
            process, parent_end = self._launch_shard(index)
            deadline = time.monotonic() + self.start_timeout
            try:
                handle = self._await_shard(index, process, parent_end, deadline)
            except BaseException:
                if process.is_alive():
                    process.terminate()
                raise
            self._handles[index] = handle
        with self._lock:
            self.ring.add(index)
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
        total = 0.0
        for index in self._live_shards():
            try:
                stats = self._client_for(index).stats()
            except _FAILOVER_ERRORS:
                self._note_failure(index)
                continue
            engine = stats.get("engine") or {}
            total += float(engine.get("queued", 0) or 0)
        return total

    def scale_tick(self, queue_depth: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """One autoscaler observation; returns the action taken (or None).

        ``queue_depth`` defaults to the observed fleet-wide depth; tests (and
        operators simulating load) may inject a value.  The decision applies
        the policy's two-sided hysteresis — a watermark must stay breached
        for ``observations`` consecutive ticks, any tick in between the
        watermarks resets both streaks — and the cooldown, so a load
        oscillating across a watermark cannot flap membership.
        """
        policy = self.scale_policy
        if policy is None:
            raise ServingError("the cluster has no scale policy")
        if queue_depth is None:
            queue_depth = self._observed_queue_depth()
        queue_depth = float(queue_depth)
        self.telemetry.set_gauge("cluster.scale.queue_depth", queue_depth)
        if queue_depth >= policy.high_queue_depth:
            self._scale_above += 1
            self._scale_below = 0
        elif queue_depth <= policy.low_queue_depth:
            self._scale_below += 1
            self._scale_above = 0
        else:
            self._scale_above = 0
            self._scale_below = 0
        now = time.monotonic()
        cooling = (
            self._last_scale_at is not None
            and now - self._last_scale_at < policy.cooldown
        )
        with self._lock:
            live = list(self.ring.nodes)
        self.telemetry.set_gauge("cluster.scale.live_shards", len(live))
        if cooling:
            return None
        if self._scale_above >= policy.observations and len(live) < policy.max_shards:
            self._scale_above = 0
            action = self._scale_up()
            if action is not None:
                self._last_scale_at = now
            return action
        if self._scale_below >= policy.observations and len(live) > policy.min_shards:
            self._scale_below = 0
            action = self._scale_down(live)
            if action is not None:
                self._last_scale_at = now
            return action
        return None

    def _scale_up(self) -> Optional[Dict[str, Any]]:
        """Add capacity: rejoin a parked local shard, else spawn a new one."""
        with self._lock:
            parked = sorted(
                index
                for index in self._drained + self._dead
                if not self._handles[index].remote
            )
        try:
            if parked:
                result = dict(self.rejoin_shard(parked[0]))
                reason = "rejoin"
            else:
                result = dict(self.add_shard())
                reason = "spawn"
        except ServingError:
            return None  # e.g. a dead shard that fails to respawn; retry next tick
        self.telemetry.inc("cluster.scale.up", reason=reason)
        result["action"] = "up"
        result["reason"] = reason
        return result

    def _scale_down(self, live: List[int]) -> Optional[Dict[str, Any]]:
        """Shed capacity by draining the highest-index live *local* shard.

        Draining (not killing) keeps the process parked so the next scale-up
        is a cheap rejoin; remote shards are never scaled down — the router
        did not provision them, so it does not decommission them.
        """
        local = [index for index in live if not self._handles[index].remote]
        if not local:
            return None
        try:
            result = dict(self.drain_shard(max(local)))
        except ServingError:
            return None  # e.g. it became the last ring member; retry next tick
        self.telemetry.inc("cluster.scale.down", reason="drain")
        result["action"] = "down"
        result["reason"] = "drain"
        return result

    def _scale_loop(self) -> None:
        """Background watermark watcher (``scale_interval`` seconds per tick)."""
        while not self._scale_stop.wait(self.scale_interval):
            try:
                self.scale_tick()
            except Exception:  # pragma: no cover - scaling must not die
                pass

    # -- request plumbing ---------------------------------------------------------
    def _client_for(self, index: int):
        """Thread-local cached connection to one shard (created on demand).

        Connections are cached per (thread, shard, *generation*): a respawned
        shard bumps its generation, so connections to the dead predecessor
        are dropped instead of reused.
        """
        from .netserver import ServingClient

        cache = getattr(self._local, "clients", None)
        if cache is None:
            cache = self._local.clients = {}
        with self._lock:
            generation = self._generations.get(index, 0)
        cached = cache.get(index)
        if cached is not None:
            cached_generation, client = cached
            if cached_generation == generation:
                return client
            self._drop_client(index)
        handle = self._handles[index]
        client = ServingClient(
            handle.host, handle.port, timeout=self.request_timeout, wire=self.wire
        )
        cache[index] = (generation, client)
        with self._lock:
            self._all_clients.add(client)
        return client

    def _drop_client(self, index: int) -> None:
        cache = getattr(self._local, "clients", None)
        if cache is None:
            return
        cached = cache.pop(index, None)
        if cached is not None:
            _generation, client = cached
            try:
                client.close()
            except Exception:
                pass
            with self._lock:
                self._all_clients.discard(client)

    def _note_failure(self, index: int) -> None:
        """A request to ``index`` failed at the transport level.

        A dead process is removed from the ring so its clients reroute; a
        live process (transient connection failure) stays — the retry loop
        reconnects to it.
        """
        self._drop_client(index)
        handle = self._handles.get(index)
        if handle is None:
            return
        if handle.remote:
            # A remote shard has no process to ask; one failed probe after a
            # transport error is the eviction signal (transient connection
            # loss to a live endpoint answers the probe and stays routable).
            if not self._ping_shard(handle):
                self.mark_dead(index)
        elif not handle.alive():
            self.mark_dead(index)

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
            live = list(self.ring.nodes)
            dead = list(self._dead)
            drained = list(self._drained)
        shard_stats: Dict[str, Any] = {}
        for index in live:
            try:
                shard_stats[str(index)] = self._client_for(index).stats()
            except _FAILOVER_ERRORS:
                self._note_failure(index)
        return {
            "shards": self.shards,
            "live": live,
            "dead": dead,
            "drained": drained,
            "session_dir": self.session_dir,
            "artifact_dir": self.artifact_dir,
            "health_interval": self.health_interval,
            "fairness": (
                self.fairness is not None and self.fairness.enabled
            ),
            "per_shard": shard_stats,
        }

    # -- telemetry fan-out ---------------------------------------------------------
    def _live_shards(self) -> List[int]:
        with self._lock:
            return list(self.ring.nodes)

    def shard_metrics(self) -> Dict[str, Dict[str, Any]]:
        """Each live shard's registry snapshot, keyed by shard index."""
        snapshots: Dict[str, Dict[str, Any]] = {}
        for index in self._live_shards():
            try:
                snapshots[str(index)] = self._client_for(index).metrics()["metrics"]
            except _FAILOVER_ERRORS:
                self._note_failure(index)
        return snapshots

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The cluster-wide snapshot: shard registries aggregated into one.

        Every series appears per-shard (labeled ``shard=<i>``) and summed
        into an unlabeled aggregate, with histogram percentiles recomputed
        from the merged buckets.  The cluster's own control-plane registry
        (``cluster.scale.*``, ``cluster.shards.joined``) rides along under
        ``shard=cluster``; the TCP router adds its own registry on top when
        serving the wire ``metrics`` op.
        """
        snapshots = self.shard_metrics()
        snapshots["cluster"] = self.telemetry.registry.snapshot()
        return aggregate_snapshots(snapshots)

    def shard_traces(self, trace_id: str) -> List[Optional[Dict[str, Any]]]:
        """Each live shard's view of one trace (None entries for unknown)."""
        parts: List[Optional[Dict[str, Any]]] = []
        for index in self._live_shards():
            try:
                parts.append(self._client_for(index).trace_of(trace_id))
            except _FAILOVER_ERRORS:
                self._note_failure(index)
        return parts

    def trace_of(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """One trace merged across shards (spans in timestamp order)."""
        return merge_traces(self.shard_traces(trace_id))

    def shard_slow(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Every live shard's recent slow requests, merged (unsorted)."""
        records: List[Dict[str, Any]] = []
        for index in self._live_shards():
            try:
                records.extend(self._client_for(index).slow(limit))
            except _FAILOVER_ERRORS:
                self._note_failure(index)
        return records

    def slow_requests(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Cluster-wide slow requests, newest first."""
        records = self.shard_slow(limit)
        records.sort(key=lambda record: record.get("ts", 0.0), reverse=True)
        if limit is not None:
            records = records[: max(int(limit), 0)]
        return records
