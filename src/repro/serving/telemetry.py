r"""Unified telemetry plane: metrics registry, latency histograms, request tracing.

Every serving count is written once, here, where it happens: the job engine
writes its submissions, outcomes, throttles, batches and waits; the program
registry, session cache and artifact tier their hits, misses, evictions and
stores; each component sets its sizes and constants as gauges.  ``stats()``
is a view read back from these series.  The one thing still folded in from
outside the registry is the engine's derived view, as ``serving.engine.*``
gauges (:func:`absorb_summary`), because ``benchmarks/e2e`` reads
``serving.engine.batches``.

Traces tell *where* a slow encrypted request spent its time as it crossed
router → shard → fair queue → batch → backend:

* :class:`MetricsRegistry` — thread-safe counters, gauges, and log-bucketed
  latency :class:`Histogram`\ s (p50/p95/p99 derived from buckets) under
  stable dotted metric names with per-``client`` / per-``program`` labels.
  Snapshots are plain JSON; :func:`render_prometheus` turns one into the
  Prometheus text exposition format, and :func:`aggregate_snapshots` merges
  the snapshots of N shards into one cluster view (per-shard labeled series
  *plus* summed aggregate series, with histogram percentiles recomputed from
  the merged buckets).

* request tracing — a ``trace_id`` minted by the client (or by the cluster
  router for untraced clients) travels through the wire protocol, router
  forwarding, shard dispatch, job queueing, batch formation, and backend
  execution; each stage records a *span* (``router_forward``,
  ``quota_admission``, ``queue_wait``, ``batch_form``, ``compile_or_cache``,
  ``session_restore``, ``execute``, ``serialize_reply``) into a bounded
  per-shard ring buffer (:class:`Telemetry`).  Requests slower than a
  configurable threshold emit one structured WARNING log line and are kept
  in a separate slow-request ring for ``cluster slow``.

The registry's hot-path cost is one lock acquisition plus a dict update per
observation; series cardinality is bounded (``max_series``) so client-chosen
label values cannot exhaust memory, and a write past the bound is folded into
its name's unlabelled series so totals stay exact.

Stable metric name catalogue (mirrored in ``docs/metrics.md``; the
``tools/check_docs.py`` gate keeps the two in sync):

====================================  =========  =======================
name                                  kind       labels
====================================  =========  =======================
serving.requests.submitted            counter    client, program
serving.requests.completed            counter    client, program
serving.requests.failed               counter    client, program
serving.requests.throttled            counter    client
serving.requests.rejected             counter    client
serving.requests.cancelled            counter    client
serving.router.forwarded              counter    client, op
serving.router.throttled              counter    client
net.bytes_sent / net.bytes_received   counter    protocol
serving.batches                       counter    program, size
serving.queue.depth                   gauge      —
serving.queue.seconds                 histogram  client, program
serving.execute.seconds               histogram  client, program
serving.request.seconds               histogram  op, program
serving.slow_requests                 counter    program
serving.rotations                     counter    client, program
serving.keyswitch                     counter    client, program
serving.galois.keys_bytes             counter    client, program
serving.galois.key_steps              gauge      program
serving.slo.attained                  counter    slo_class, program
serving.slo.missed                    counter    slo_class, program
serving.slo.rejected                  counter    slo_class, client
ckks.op.count                         counter    op, program
ckks.op.seconds                       counter    op, program
ckks.ntt.rows                         counter    op, program
cluster.shards.joined                 counter    —
serving.registry.hits                 counter    —
serving.registry.misses               counter    —
serving.registry.evictions            counter    —
serving.registry.capacity             gauge      —
serving.registry.entries              gauge      —
serving.sessions.hits                 counter    —
serving.sessions.misses               counter    —
serving.sessions.evictions            counter    —
serving.sessions.capacity             gauge      —
serving.sessions.sessions             gauge      —
serving.sessions.clients              gauge      —
serving.sessions.client_keyed         gauge      —
serving.artifacts.hits                counter    —
serving.artifacts.misses              counter    —
serving.artifacts.stores              counter    —
serving.artifacts.records             gauge      —
serving.store.ttl                     gauge      —
serving.store.records                 gauge      —
serving.quota.enabled                 gauge      —
serving.quota.quota_rps               gauge      —
serving.quota.max_inflight            gauge      —
serving.engine.*                      gauge      (absorbed engine view)
====================================  =========  =======================

The ``op`` label of the three ``ckks.*`` series is the scheme primitive that
paid (``encrypt``, ``multiply``, ``rotate``, ``rescale``, ...), plus two that
are not evaluation steps: ``keygen`` (a server-held-key session generating its
keys) and ``export`` (a reply converted to the wire's coefficient form).
"""

from __future__ import annotations

import json
import logging
import sys
import threading
import time
import uuid
from bisect import bisect_left
from collections import OrderedDict, deque
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: Default log-spaced latency bucket boundaries (seconds): factor-2 ladder
#: from 100 microseconds to ~400 seconds, plus the implicit +Inf bucket.
#: 23 buckets bound every histogram's memory while keeping the relative
#: quantile error under 2x anywhere on the ladder.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(1e-4 * (2.0**k) for k in range(23))

#: The per-stage span names the serving stack records, in pipeline order.
TRACE_STAGES = (
    "router_forward",
    "quota_admission",
    "queue_wait",
    "batch_form",
    "compile_or_cache",
    "session_restore",
    "execute",
    "serialize_reply",
)


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id (uuid4, no dashes)."""
    return uuid.uuid4().hex


class Histogram:
    """Log-bucketed latency histogram with bucket-derived percentiles.

    Observations land in the first bucket whose upper bound is >= the value
    (Prometheus ``le`` semantics); quantiles are reconstructed by linear
    interpolation inside the containing bucket, so their error is bounded by
    the bucket width at that latency.  Not thread-safe on its own —
    :class:`MetricsRegistry` serializes access.
    """

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if not self.bounds or any(
            b2 <= b1 for b1, b2 in zip(self.bounds, self.bounds[1:])
        ):
            raise ValueError("histogram bounds must be strictly increasing")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)  # +Inf last
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one sample into its log-spaced bucket."""
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def percentile(self, q: float) -> float:
        """The q-th percentile (0..100) reconstructed from the buckets."""
        return percentile_from_buckets(self.bounds, self.counts, self.count, q)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly bucket counts plus derived percentiles."""
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            # Non-empty buckets only, as [upper_bound, count] pairs; the
            # +Inf bucket serializes with bound null.
            "buckets": [
                [self.bounds[i] if i < len(self.bounds) else None, c]
                for i, c in enumerate(self.counts)
                if c
            ],
            **{f"p{q}": round(self.percentile(q), 9) for q in (50, 95, 99)},
        }


def percentile_from_buckets(
    bounds: Tuple[float, ...], counts: List[int], total: int, q: float
) -> float:
    """Reconstruct a percentile from cumulative-style bucket counts.

    Interpolates linearly inside the containing bucket ([0, bound] for the
    first, [prev, bound] otherwise); the open +Inf bucket reports its lower
    bound (the best bounded answer available).
    """
    if total <= 0:
        return 0.0
    rank = max(q / 100.0, 0.0) * total
    seen = 0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        if seen + count >= rank:
            fraction = (rank - seen) / count
            if index >= len(bounds):  # +Inf bucket
                return bounds[-1]
            hi = bounds[index]
            lo = bounds[index - 1] if index > 0 else 0.0
            return lo + (hi - lo) * min(max(fraction, 0.0), 1.0)
        seen += count
    return bounds[-1]


def _label_key(labels: Mapping[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items() if v is not None))


class MetricsRegistry:
    """Thread-safe registry of counters, gauges, and histograms.

    Series are keyed by ``(dotted name, sorted labels)``.  ``max_series``
    bounds total cardinality — client ids are caller-chosen strings, so
    unbounded per-label state would let an id-rotating client exhaust
    memory.  A counter or histogram write that finds no budget for a new
    label set is folded into its name's unlabelled series (at most one per
    name, created past the bound), so totals stay exact; a gauge write is
    dropped.  Both are counted in ``dropped_series``.
    """

    def __init__(
        self,
        max_series: int = 8192,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        if max_series < 1:
            raise ValueError("max_series must be at least 1")
        self.max_series = int(max_series)
        self.buckets = tuple(buckets)
        self.dropped_series = 0
        self._counters: Dict[Tuple[str, tuple], float] = {}
        self._gauges: Dict[Tuple[str, tuple], float] = {}
        self._histograms: Dict[Tuple[str, tuple], Histogram] = {}
        self._lock = threading.Lock()

    def _series_budget_ok(self) -> bool:
        return (
            len(self._counters) + len(self._gauges) + len(self._histograms)
            < self.max_series
        )

    def _budgeted(self, table: Dict, key: Tuple[str, tuple]) -> Tuple[str, tuple]:
        """``key``, or its name's unlabelled series when ``key`` is new and
        the budget is spent (lock held)."""
        if key in table or self._series_budget_ok():
            return key
        self.dropped_series += 1
        return (key[0], ())

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Add ``value`` to a labeled counter series."""
        key = (str(name), _label_key(labels))
        with self._lock:
            key = self._budgeted(self._counters, key)
            self._counters[key] = self._counters.get(key, 0.0) + float(value)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a labeled gauge series to ``value``."""
        key = (str(name), _label_key(labels))
        with self._lock:
            if key not in self._gauges and not self._series_budget_ok():
                self.dropped_series += 1
                return
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record ``value`` into a labeled histogram series."""
        key = (str(name), _label_key(labels))
        with self._lock:
            key = self._budgeted(self._histograms, key)
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram(self.buckets)
            histogram.observe(value)

    def counter_value(self, name: str, **labels: Any) -> float:
        """Current value of one counter series (0.0 when absent)."""
        with self._lock:
            return self._counters.get((str(name), _label_key(labels)), 0.0)

    def gauge_value(self, name: str, **labels: Any) -> float:
        """Current value of one gauge series (0.0 when absent)."""
        with self._lock:
            return self._gauges.get((str(name), _label_key(labels)), 0.0)

    def histogram_of(self, name: str, **labels: Any) -> Optional[Histogram]:
        """The histogram object behind one series, or None."""
        with self._lock:
            return self._histograms.get((str(name), _label_key(labels)))

    def totals(self, split: str = "") -> Dict[Tuple[str, str], float]:
        """Counters and histogram sums added up across label sets, in one pass.

        Keyed by ``(name, value of the split label)``, ``""`` for a series
        without that label (a folded one has none).
        """
        with self._lock:
            series = list(self._counters.items())
            series += [(key, hist.sum) for key, hist in self._histograms.items()]
        out: Dict[Tuple[str, str], float] = {}
        for (name, labels), value in series:
            key = (name, dict(labels).get(split, ""))
            out[key] = out.get(key, 0.0) + value
        return out

    def total(self, name: str) -> float:
        """One counter (or histogram sum) added up across its label sets."""
        return sum(v for (n, _), v in self.totals().items() if n == name)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able snapshot of every series (single consistent lock hold)."""
        with self._lock:
            return {
                "counters": [
                    {"name": name, "labels": dict(labels), "value": value}
                    for (name, labels), value in sorted(self._counters.items())
                ],
                "gauges": [
                    {"name": name, "labels": dict(labels), "value": value}
                    for (name, labels), value in sorted(self._gauges.items())
                ],
                "histograms": [
                    {"name": name, "labels": dict(labels), **hist.snapshot()}
                    for (name, labels), hist in sorted(self._histograms.items())
                ],
                "dropped_series": self.dropped_series,
            }


def absorb_summary(
    snapshot: Dict[str, Any], prefix: str, summary: Optional[Mapping[str, Any]]
) -> None:
    """Fold a ``summary()`` dict into a snapshot as gauges under ``prefix``.

    Only numeric leaves are absorbed (one level of nested dicts is flattened
    with a dotted suffix); strings/lists are monitoring noise here and stay
    in ``stats()``.  The engine's view is its one caller
    (``serving.engine.*``).
    """
    gauges = snapshot.setdefault("gauges", [])
    for key, value in (summary or {}).items():
        leaves = value.items() if isinstance(value, Mapping) else [(None, value)]
        for sub_key, leaf in leaves:
            if isinstance(leaf, (int, float)):
                name = f"{prefix}.{key}" if sub_key is None else f"{prefix}.{key}.{sub_key}"
                gauges.append({"name": name, "labels": {}, "value": leaf})


def aggregate_snapshots(
    snapshots: Mapping[str, Dict[str, Any]]
) -> Dict[str, Any]:
    """Merge per-shard registry snapshots into one cluster-wide snapshot.

    Every input series appears twice in the result: once labeled with its
    ``shard`` (so per-shard views survive aggregation — CI asserts on them)
    and once folded into an unlabeled aggregate series (counters and
    histogram buckets summed; gauges summed; histogram percentiles
    recomputed from the merged buckets, which is exactly the bucket math a
    single registry would have produced over the union of samples).
    """
    out: Dict[str, Any] = {
        "counters": [],
        "gauges": [],
        "histograms": [],
        "dropped_series": 0,
    }
    agg_counters: "OrderedDict[tuple, float]" = OrderedDict()
    agg_gauges: "OrderedDict[tuple, float]" = OrderedDict()
    agg_hists: "OrderedDict[tuple, Dict[str, Any]]" = OrderedDict()

    for shard, snapshot in snapshots.items():
        out["dropped_series"] += int(snapshot.get("dropped_series", 0))
        for kind, totals in (("counters", agg_counters), ("gauges", agg_gauges)):
            for series in snapshot.get(kind, []):
                labels = dict(series.get("labels", {}))
                out[kind].append(
                    {
                        "name": series["name"],
                        "labels": {**labels, "shard": str(shard)},
                        "value": series["value"],
                    }
                )
                key = (series["name"], _label_key(labels))
                totals[key] = totals.get(key, 0.0) + float(series["value"])
        for hist in snapshot.get("histograms", []):
            labels = dict(hist.get("labels", {}))
            out["histograms"].append(
                {**hist, "labels": {**labels, "shard": str(shard)}}
            )
            key = (hist["name"], _label_key(labels))
            merged = agg_hists.get(key)
            if merged is None:
                merged = agg_hists[key] = {
                    "bounds": None,
                    "counts": {},
                    "count": 0,
                    "sum": 0.0,
                }
            for bound, count in hist.get("buckets", []):
                bound_key = float("inf") if bound is None else float(bound)
                merged["counts"][bound_key] = (
                    merged["counts"].get(bound_key, 0) + int(count)
                )
            merged["count"] += int(hist.get("count", 0))
            merged["sum"] += float(hist.get("sum", 0.0))

    for kind, totals in (("counters", agg_counters), ("gauges", agg_gauges)):
        for (name, labels), value in totals.items():
            out[kind].append({"name": name, "labels": dict(labels), "value": value})
    for (name, labels), merged in agg_hists.items():
        bounds = sorted(b for b in merged["counts"] if b != float("inf"))
        counts = [merged["counts"][b] for b in bounds]
        counts.append(merged["counts"].get(float("inf"), 0))
        bounds_t = tuple(bounds) if bounds else (0.0,)
        if not bounds:
            counts = [0, merged["counts"].get(float("inf"), 0)]
        entry = {
            "name": name,
            "labels": dict(labels),
            "count": merged["count"],
            "sum": round(merged["sum"], 9),
            "buckets": [[b, c] for b, c in zip(bounds, counts) if c]
            + ([[None, counts[-1]]] if counts[-1] else []),
            **{
                f"p{q}": round(percentile_from_buckets(bounds_t, counts, merged["count"], q), 9)
                for q in (50, 95, 99)
            },
        }
        out["histograms"].append(entry)
    return out


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_value(value: Any) -> str:
    """A label value escaped for the text format (backslash, quote, newline)."""
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_labels(labels: Mapping[str, Any], extra: str = "") -> str:
    parts = [
        f'{_prom_name(key)}="{_prom_value(value)}"' for key, value in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(snapshot: Dict[str, Any]) -> str:
    """Render a registry snapshot in the Prometheus text exposition format."""
    lines: List[str] = []
    seen_types: set = set()

    def typeline(name: str, kind: str) -> None:
        """Emit the # TYPE header once per metric name."""
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for counter in snapshot.get("counters", []):
        name = _prom_name(counter["name"]) + "_total"
        typeline(name, "counter")
        lines.append(
            f"{name}{_prom_labels(counter.get('labels', {}))} {counter['value']:g}"
        )
    for gauge in snapshot.get("gauges", []):
        name = _prom_name(gauge["name"])
        typeline(name, "gauge")
        lines.append(
            f"{name}{_prom_labels(gauge.get('labels', {}))} {gauge['value']:g}"
        )
    for hist in snapshot.get("histograms", []):
        name = _prom_name(hist["name"])
        typeline(name, "histogram")
        labels = hist.get("labels", {})
        cumulative = 0
        for bound, count in hist.get("buckets", []):
            cumulative += int(count)
            le = "+Inf" if bound is None else f"{bound:g}"
            extra = 'le="%s"' % le
            lines.append(f"{name}_bucket{_prom_labels(labels, extra)} {cumulative}")
        if hist.get("buckets") and hist["buckets"][-1][0] is not None:
            extra = 'le="+Inf"'
            lines.append(f"{name}_bucket{_prom_labels(labels, extra)} {cumulative}")
        lines.append(f"{name}_sum{_prom_labels(labels)} {hist.get('sum', 0):g}")
        lines.append(f"{name}_count{_prom_labels(labels)} {hist.get('count', 0)}")
    return "\n".join(lines) + "\n"


_slow_logger = logging.getLogger("repro.serving.slow")


class Telemetry:
    """One process's telemetry plane: registry + trace ring + slow-request log.

    ``shard`` labels every span with where it was recorded (a shard index,
    or ``"router"``); ``slow_threshold`` (seconds) is the wall-clock total
    beyond which a finished request emits one structured WARNING line and
    joins the slow ring buffer.
    """

    def __init__(
        self,
        slow_threshold: float = 1.0,
        trace_capacity: int = 1024,
        slow_capacity: int = 256,
        shard: Optional[Any] = None,
        max_series: int = 8192,
    ) -> None:
        if trace_capacity < 1 or slow_capacity < 1:
            raise ValueError("trace/slow capacities must be at least 1")
        self.registry = MetricsRegistry(max_series=max_series)
        self.slow_threshold = float(slow_threshold)
        self.shard = shard
        self._traces: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._trace_capacity = int(trace_capacity)
        self._slow: "deque[Dict[str, Any]]" = deque(maxlen=int(slow_capacity))
        self._lock = threading.Lock()

    # -- metrics passthroughs ---------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Registry passthrough: add to a counter series."""
        self.registry.inc(name, value, **labels)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Registry passthrough: record a histogram sample."""
        self.registry.observe(name, value, **labels)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Registry passthrough: set a gauge."""
        self.registry.set_gauge(name, value, **labels)

    # -- tracing ------------------------------------------------------------------
    def span(
        self, trace_id: Optional[str], stage: str, seconds: float, **meta: Any
    ) -> None:
        """Record one per-stage span for ``trace_id`` (no-op when untraced)."""
        if not trace_id:
            return
        span = {
            "stage": str(stage),
            "seconds": round(float(seconds), 9),
            "ts": time.time(),
        }
        if self.shard is not None:
            span["shard"] = self.shard
        for key, value in meta.items():
            if value is not None:
                span[key] = value
        with self._lock:
            entry = self._traces.get(trace_id)
            if entry is None:
                entry = self._traces[trace_id] = {
                    "trace_id": str(trace_id),
                    "spans": [],
                }
                while len(self._traces) > self._trace_capacity:
                    self._traces.popitem(last=False)
            else:
                self._traces.move_to_end(trace_id)
            entry["spans"].append(span)

    def trace_of(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """The recorded spans of one trace (or None when unknown/evicted)."""
        with self._lock:
            entry = self._traces.get(str(trace_id))
            if entry is None:
                return None
            return {
                "trace_id": entry["trace_id"],
                "spans": [dict(span) for span in entry["spans"]],
                **{
                    key: value
                    for key, value in entry.items()
                    if key not in ("trace_id", "spans")
                },
            }

    def finish(
        self,
        trace_id: Optional[str],
        total_seconds: float,
        op: str = "submit",
        client: Optional[str] = None,
        program: Optional[str] = None,
    ) -> None:
        """Finish one request: total-latency histogram + slow-request handling.

        Runs for *every* request, traced or not — slow requests without a
        trace id still deserve their WARNING line (with whatever metadata is
        at hand).
        """
        total_seconds = float(total_seconds)
        self.registry.observe(
            "serving.request.seconds", total_seconds, op=op, program=program
        )
        if trace_id:
            with self._lock:
                entry = self._traces.get(trace_id)
                if entry is not None:
                    entry["total_seconds"] = round(total_seconds, 9)
                    entry["op"] = op
                    if client is not None:
                        entry["client"] = str(client)
                    if program is not None:
                        entry["program"] = str(program)
        if total_seconds < self.slow_threshold:
            return
        self.registry.inc("serving.slow_requests", program=program)
        record = {
            "trace_id": trace_id,
            "total_seconds": round(total_seconds, 9),
            "threshold_seconds": self.slow_threshold,
            "op": op,
            "client": client,
            "program": program,
            "ts": time.time(),
        }
        if self.shard is not None:
            record["shard"] = self.shard
        trace = self.trace_of(trace_id) if trace_id else None
        if trace is not None:
            record["spans"] = trace["spans"]
        with self._lock:
            self._slow.append(record)
        _slow_logger.warning(
            "slow request: %.3fs >= %.3fs threshold (op=%s program=%s client=%s "
            "trace_id=%s)",
            total_seconds,
            self.slow_threshold,
            op,
            program,
            client,
            trace_id,
            extra={
                "trace_id": trace_id,
                "client": client,
                "program": program,
                "op": op,
                "total_seconds": round(total_seconds, 6),
            },
        )

    def slow(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Most recent slow requests, newest first."""
        with self._lock:
            records = list(self._slow)
        records.reverse()
        if limit is not None:
            records = records[: max(int(limit), 0)]
        return records


def merge_traces(parts: Iterable[Optional[Dict[str, Any]]]) -> Optional[Dict[str, Any]]:
    """Merge the per-process views of one trace (router + shards) into one.

    Spans are concatenated in timestamp order; scalar metadata (client,
    program, op, total) prefers the richest part — the one that actually
    finished the request.
    """
    merged: Optional[Dict[str, Any]] = None
    for part in parts:
        if not part:
            continue
        if merged is None:
            merged = {"trace_id": part["trace_id"], "spans": []}
        for key, value in part.items():
            if key != "spans" and value is not None:
                merged.setdefault(key, value)
        merged["spans"].extend(part.get("spans", []))
    if merged is not None:
        merged["spans"].sort(key=lambda span: span.get("ts", 0.0))
    return merged


class _JsonLogFormatter(logging.Formatter):
    """One-line JSON log events (machine-parseable shard logs for CI)."""

    #: Extra record attributes surfaced as top-level JSON keys when present.
    _FIELDS = ("trace_id", "client", "program", "op", "total_seconds", "shard")

    def format(self, record: logging.LogRecord) -> str:
        """Render the record as one JSON line with trace/client/op fields."""
        event: Dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "event": record.getMessage(),
        }
        for field in self._FIELDS:
            value = getattr(record, field, None)
            if value is not None:
                event[field] = value
        if record.exc_info:
            event["exc"] = self.formatException(record.exc_info)
        return json.dumps(event, separators=(",", ":"), default=str)


def log_level(level: str) -> int:
    """The numeric value of a standard logging level name (any case)."""
    resolved = getattr(logging, str(level).upper(), None)
    if not isinstance(resolved, int):
        raise ValueError(f"unknown log level {level!r}")
    return resolved


def configure_logging(json_logs: bool = False, level: str = "INFO") -> None:
    """Configure the ``repro`` logger tree for serving processes.

    ``json_logs`` switches to one-line JSON events (``_JsonLogFormatter``);
    ``level`` is a standard logging level name.  Idempotent: reconfiguring
    replaces the handler instead of stacking duplicates.
    """
    logger = logging.getLogger("repro")
    resolved = log_level(level)
    handler = logging.StreamHandler(sys.stderr)
    if json_logs:
        handler.setFormatter(_JsonLogFormatter())
    else:
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
        )
    for existing in list(logger.handlers):
        logger.removeHandler(existing)
    logger.addHandler(handler)
    logger.setLevel(resolved)
    logger.propagate = False


__all__ = [
    "DEFAULT_BUCKETS",
    "TRACE_STAGES",
    "Histogram",
    "MetricsRegistry",
    "Telemetry",
    "absorb_summary",
    "aggregate_snapshots",
    "configure_logging",
    "merge_traces",
    "new_trace_id",
    "percentile_from_buckets",
    "render_prometheus",
]
