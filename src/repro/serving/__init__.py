"""Encrypted-computation serving subsystem (compile once, serve many).

Turns the one-shot compiler + executor into a serving stack:

* :class:`ProgramRegistry` — compile each (program, policy) once, LRU-cached.
* :class:`SessionManager` — cache backend contexts and keys per client.
* :class:`SlotBatcher` — pack independent small requests into spare CKKS slots.
* :class:`JobEngine` — bounded-queue worker pool with a futures API.
* :class:`EvaServer` — the in-process front door combining all of the above.
* :class:`EvaTcpServer` / :class:`ServingClient` — newline-JSON TCP transport
  (also exposed as ``repro.cli serve`` / ``repro.cli submit``).
* :class:`SessionStore` — disk persistence of client key blobs, so sessions
  survive restarts and shard failures (with TTL-based ``prune`` GC).
* :class:`ArtifactCache` — shared on-disk compiled-program cache: shards load
  what their siblings already compiled (lane-width variants included)
  instead of recompiling.
* :class:`FairnessPolicy` / :class:`QuotaLedger` — per-client token-bucket
  rate quotas and in-flight caps (the serving 429,
  :class:`~repro.errors.QuotaExceededError`), enforced at the cluster router
  and at each shard's job engine, which dequeues by fair queueing
  instead of global FIFO.
* :class:`EvaCluster` / :class:`ClusterTcpServer` — multi-node sharding:
  local shard processes plus remote shard servers attached from a cluster
  config or live via the ``join`` wire op, consistent-hash client routing,
  transparent failover, health checks, and shard ``drain`` / ``rejoin``
  (``repro.cli serve --shards N --cluster-config cluster.toml``; admin via
  ``repro.cli cluster``).  Every serving process — ``serve``, a shard — is
  built from one :class:`ShardConfig` recipe, and the shard lifecycle is the
  sans-IO state table of :mod:`repro.serving.membership`.
* SLO classes — requests may carry ``deadline_ms`` / ``slo_class``
  (``tight`` / ``standard`` / ``relaxed``); admission rejects infeasible
  deadlines up front (:class:`~repro.errors.DeadlineInfeasibleError` with
  ``retry_after``) and :func:`linger_budget` decides batch-vs-solo per
  request against its deadline.
* :class:`Telemetry` / :class:`MetricsRegistry` / :class:`Histogram` — the
  unified telemetry plane: dotted-name counters/gauges/latency histograms
  (p50/p95/p99 from log buckets), per-stage request tracing with a
  client-or-router-minted ``trace_id``, slow-request detection, Prometheus
  text exposition, and cluster-wide aggregation
  (``repro.cli cluster metrics|trace|slow``; ``submit --trace``).
"""

from .artifacts import ArtifactCache
from .batching import (
    BatchInfo,
    BatchPlan,
    SlotBatcher,
    is_slotwise,
    linger_budget,
    min_lane_width,
    request_width,
)
from .cluster import (
    BackendSpec,
    ConsistentHashRing,
    EvaCluster,
    ShardConfig,
    ShardHandle,
    load_cluster_config,
)
from .jobs import Job, JobEngine
from .netserver import ClusterTcpServer, EvaTcpServer, ServingClient
from .quotas import FairnessPolicy, QuotaLedger, TokenBucket
from .registry import ProgramRegistry
from .server import (
    EncryptedServeRequest,
    EncryptedServeResponse,
    EvaServer,
    ProgramSpec,
    ServeRequest,
    ServeResponse,
)
from .sessions import Session, SessionManager, session_key
from .store import SessionStore, session_digest
from .telemetry import (
    Histogram,
    MetricsRegistry,
    Telemetry,
    aggregate_snapshots,
    configure_logging,
    merge_traces,
    new_trace_id,
    render_prometheus,
)

__all__ = [
    "ArtifactCache",
    "FairnessPolicy",
    "QuotaLedger",
    "TokenBucket",
    "BatchInfo",
    "BatchPlan",
    "SlotBatcher",
    "is_slotwise",
    "linger_budget",
    "min_lane_width",
    "request_width",
    "BackendSpec",
    "ConsistentHashRing",
    "EvaCluster",
    "ShardConfig",
    "ShardHandle",
    "load_cluster_config",
    "Job",
    "JobEngine",
    "ClusterTcpServer",
    "EvaTcpServer",
    "ServingClient",
    "SessionStore",
    "session_digest",
    "ProgramRegistry",
    "EvaServer",
    "ProgramSpec",
    "ServeRequest",
    "ServeResponse",
    "EncryptedServeRequest",
    "EncryptedServeResponse",
    "Session",
    "SessionManager",
    "session_key",
    "Histogram",
    "MetricsRegistry",
    "Telemetry",
    "aggregate_snapshots",
    "configure_logging",
    "merge_traces",
    "new_trace_id",
    "render_prometheus",
]
