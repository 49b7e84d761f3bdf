"""Tests for the unified telemetry plane: histograms, registry, tracing, wire."""

import json
import logging
import threading
import time

import numpy as np
import pytest

from repro.backend import MockBackend
from repro.core.serialization import messages
from repro.errors import QuotaExceededError
from repro.frontend import EvaProgram, input_encrypted, output
from repro.serving import (
    EvaServer,
    EvaTcpServer,
    FairnessPolicy,
    Histogram,
    JobEngine,
    MetricsRegistry,
    ServingClient,
    Telemetry,
    aggregate_snapshots,
    merge_traces,
    new_trace_id,
    render_prometheus,
)
from repro.serving.telemetry import (
    DEFAULT_BUCKETS,
    SLOW_CAPACITY,
    absorb_summary,
    percentile_from_buckets,
)


def make_poly_program(name="poly", vec_size=16):
    program = EvaProgram(name, vec_size=vec_size, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", x * x + x + 1.0, 25)
    return program


class TestHistogram:
    def test_count_and_sum_track_observations(self):
        hist = Histogram()
        for value in (0.001, 0.002, 0.04):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(0.043)

    def test_bucket_assignment_uses_le_semantics(self):
        # An observation exactly on a bound lands in that bound's bucket.
        hist = Histogram(bounds=(1.0, 2.0, 4.0))
        hist.observe(2.0)
        assert hist.counts == [0, 1, 0, 0]
        hist.observe(100.0)  # beyond the ladder -> +Inf bucket
        assert hist.counts == [0, 1, 0, 1]

    def test_percentile_exact_bucket_math(self):
        # 10 observations in [0,1], 10 in (1,2]: the median sits exactly at
        # the first bucket's upper bound and p75 interpolates halfway into
        # the second bucket.
        bounds = (1.0, 2.0, 4.0)
        counts = [10, 10, 0, 0]
        assert percentile_from_buckets(bounds, counts, 20, 50) == pytest.approx(1.0)
        assert percentile_from_buckets(bounds, counts, 20, 75) == pytest.approx(1.5)
        assert percentile_from_buckets(bounds, counts, 20, 100) == pytest.approx(2.0)

    def test_percentile_tracks_numpy_within_bucket_error(self):
        # Factor-2 buckets bound the relative quantile error; synthetic
        # lognormal latencies must reconstruct p50/p95/p99 within that.
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=-4.0, sigma=1.0, size=5000)
        hist = Histogram()
        for value in samples:
            hist.observe(value)
        for q in (50, 95, 99):
            exact = float(np.percentile(samples, q))
            approx = hist.percentile(q)
            assert abs(approx - exact) / exact < 1.0, (q, exact, approx)

    def test_empty_histogram_percentile_is_zero(self):
        assert Histogram().percentile(95) == 0.0

    def test_snapshot_contains_only_nonempty_buckets(self):
        hist = Histogram(bounds=(1.0, 2.0, 4.0))
        hist.observe(1.5)
        hist.observe(9.0)
        snap = hist.snapshot()
        assert snap["count"] == 2
        assert snap["buckets"] == [[2.0, 1], [None, 1]]
        assert snap["p50"] > 0

    def test_non_increasing_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))


class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        registry.inc("serving.requests.submitted", client="alice", program="p")
        registry.inc("serving.requests.submitted", client="alice", program="p")
        registry.set_gauge("serving.queue.depth", 3)
        registry.observe("serving.queue.seconds", 0.01, client="alice")
        assert registry.counter_value(
            "serving.requests.submitted", client="alice", program="p"
        ) == 2
        snap = registry.snapshot()
        assert snap["counters"][0]["value"] == 2
        assert snap["gauges"][0]["value"] == 3
        assert snap["histograms"][0]["count"] == 1

    def test_label_order_does_not_split_series(self):
        registry = MetricsRegistry()
        registry.inc("c", client="a", program="p")
        registry.inc("c", program="p", client="a")
        assert registry.counter_value("c", client="a", program="p") == 2

    def test_none_labels_are_dropped(self):
        registry = MetricsRegistry()
        registry.inc("c", client="a", program=None)
        assert registry.counter_value("c", client="a") == 1

    def test_series_cardinality_is_bounded(self):
        registry = MetricsRegistry(max_series=3)
        for i in range(10):
            registry.inc("c", client=f"rotating-{i}")
        snap = registry.snapshot()
        # Overflow folds into the unlabelled series instead of vanishing.
        assert sum(1 for c in snap["counters"] if c["labels"]) == 3
        assert snap["dropped_series"] == 7
        assert registry.counter_value("c") == 7
        # Existing series keep counting even at the cap.
        registry.inc("c", client="rotating-0")
        assert registry.counter_value("c", client="rotating-0") == 2

    def test_concurrent_increments_do_not_lose_updates(self):
        registry = MetricsRegistry()

        def spin():
            for _ in range(500):
                registry.inc("c", client="x")

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter_value("c", client="x") == 2000


class TestAbsorbSummary:
    def test_numeric_and_nested_leaves_become_gauges(self):
        snapshot = {"gauges": []}
        absorb_summary(
            snapshot,
            "serving.engine",
            {"submitted": 4, "cache": {"hits": 2, "root": "/tmp"}, "path": "/x"},
        )
        names = {g["name"]: g["value"] for g in snapshot["gauges"]}
        assert names == {
            "serving.engine.submitted": 4,
            "serving.engine.cache.hits": 2,
        }

    def test_none_summary_is_noop(self):
        snapshot = {"gauges": []}
        absorb_summary(snapshot, "x", None)
        assert snapshot["gauges"] == []


class TestAggregateSnapshots:
    def _shard_registry(self, values):
        registry = MetricsRegistry()
        for value in values:
            registry.inc("serving.requests.submitted", client="alice")
            registry.observe("serving.queue.seconds", value, client="alice")
        return registry

    def test_per_shard_series_survive_and_totals_sum(self):
        a_values = [0.001, 0.002, 0.004]
        b_values = [0.008, 0.016]
        snapshots = {
            "0": self._shard_registry(a_values).snapshot(),
            "1": self._shard_registry(b_values).snapshot(),
        }
        merged = aggregate_snapshots(snapshots)
        counters = {
            (c["name"], c["labels"].get("shard")): c["value"]
            for c in merged["counters"]
        }
        assert counters[("serving.requests.submitted", "0")] == 3
        assert counters[("serving.requests.submitted", "1")] == 2
        assert counters[("serving.requests.submitted", None)] == 5

    def test_aggregate_percentiles_match_union_bucket_math(self):
        # The cluster-wide p95 must equal what a single registry would have
        # produced over the union of samples — same buckets, same math.
        rng = np.random.default_rng(11)
        a_values = rng.uniform(0.0005, 0.02, size=40)
        b_values = rng.uniform(0.01, 0.3, size=60)
        union = Histogram()
        for value in list(a_values) + list(b_values):
            union.observe(value)
        merged = aggregate_snapshots(
            {
                "0": self._shard_registry(a_values).snapshot(),
                "1": self._shard_registry(b_values).snapshot(),
            }
        )
        aggregate = [
            h
            for h in merged["histograms"]
            if h["name"] == "serving.queue.seconds" and "shard" not in h["labels"]
        ]
        assert len(aggregate) == 1
        assert aggregate[0]["count"] == 100
        assert aggregate[0]["sum"] == pytest.approx(union.sum, rel=1e-6)
        assert aggregate[0]["p95"] == pytest.approx(union.percentile(95), rel=1e-9)
        assert aggregate[0]["p50"] == pytest.approx(union.percentile(50), rel=1e-9)

    def test_dropped_series_sum(self):
        merged = aggregate_snapshots(
            {
                "0": {"counters": [], "gauges": [], "histograms": [], "dropped_series": 2},
                "1": {"counters": [], "gauges": [], "histograms": [], "dropped_series": 3},
            }
        )
        assert merged["dropped_series"] == 5


class TestPrometheusRender:
    def test_exposition_format(self):
        registry = MetricsRegistry()
        registry.inc("serving.requests.submitted", client="alice", program="p")
        registry.set_gauge("serving.queue.depth", 2)
        registry.observe("serving.queue.seconds", 0.0003)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE serving_requests_submitted_total counter" in text
        assert (
            'serving_requests_submitted_total{client="alice",program="p"} 1' in text
        )
        assert "serving_queue_depth 2" in text
        assert "# TYPE serving_queue_seconds histogram" in text
        assert 'serving_queue_seconds_bucket{le="0.0004"} 1' in text
        assert 'serving_queue_seconds_bucket{le="+Inf"} 1' in text
        assert "serving_queue_seconds_count 1" in text

    def test_bucket_counts_are_cumulative(self):
        registry = MetricsRegistry()
        for value in (0.00005, 0.0003, 0.0005):
            registry.observe("h", value)
        text = render_prometheus(registry.snapshot())
        assert 'h_bucket{le="0.0001"} 1' in text
        assert 'h_bucket{le="0.0004"} 2' in text
        assert 'h_bucket{le="0.0008"} 3' in text
        assert 'h_bucket{le="+Inf"} 3' in text

    def test_every_sample_line_parses(self):
        registry = MetricsRegistry()
        registry.inc("a.b-c", client="x")
        registry.observe("lat", 0.01, program="p")
        for line in render_prometheus(registry.snapshot()).strip().splitlines():
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)
            assert name_part[0].isalpha() and "." not in name_part.split("{")[0]

    def test_a_client_id_cannot_forge_a_line_or_a_metric_name(self):
        """Client ids are chosen by clients: a label value is escaped, and the
        quota ledger's per-client in-flight table stays out of the gauges."""
        hostile = 'evil"} 1\nfake_metric{x="'
        server = EvaServer(
            backend=MockBackend(error_model="none"), workers=1,
            fairness=FairnessPolicy(max_inflight=4),
        )  # fmt: skip
        try:
            server.register("poly", make_poly_program())
            server.submit("poly", {"x": [1.0]}, client_id=hostile).result(10)
            server.engine.ledger.admit("a b")  # one request in flight
            snapshot = server.metrics_snapshot()
            stats = server.stats()
        finally:
            server.close()
        text = render_prometheus(snapshot)
        assert 'client="evil\\"} 1\\nfake_metric{x=\\""' in text
        sample_names = {
            line.split("{")[0].split(" ")[0]
            for line in text.splitlines()
            if line and not line.startswith("#")
        }
        assert "fake_metric" not in sample_names
        assert all(" " not in name and name.replace("_", "").isalnum() for name in sample_names)
        assert not any("clients_inflight" in gauge["name"] for gauge in snapshot["gauges"])
        assert stats["quota"]["clients_inflight"] == {"a b": 1}


class TestTelemetry:
    def test_span_is_noop_without_trace_id(self):
        telemetry = Telemetry()
        telemetry.span(None, "execute", 0.1)
        assert telemetry.slow() == []

    def test_spans_accumulate_under_one_trace(self):
        telemetry = Telemetry(shard=3)
        trace_id = new_trace_id()
        telemetry.span(trace_id, "queue_wait", 0.01)
        telemetry.span(trace_id, "execute", 0.02, client="alice")
        trace = telemetry.trace_of(trace_id)
        assert [s["stage"] for s in trace["spans"]] == ["queue_wait", "execute"]
        assert all(s["shard"] == 3 for s in trace["spans"])
        assert trace["spans"][1]["client"] == "alice"
        assert telemetry.trace_of("nope") is None

    def test_trace_ring_evicts_oldest(self):
        telemetry = Telemetry(trace_capacity=2)
        ids = [new_trace_id() for _ in range(3)]
        for trace_id in ids:
            telemetry.span(trace_id, "execute", 0.01)
        assert telemetry.trace_of(ids[0]) is None
        assert telemetry.trace_of(ids[1]) is not None
        assert telemetry.trace_of(ids[2]) is not None

    def test_finish_observes_total_latency_for_untraced_requests(self):
        telemetry = Telemetry(slow_threshold=10.0)
        telemetry.finish(None, 0.05, op="submit", program="p")
        hist = telemetry.registry.histogram_of(
            "serving.request.seconds", op="submit", program="p"
        )
        assert hist is not None and hist.count == 1
        assert telemetry.slow() == []

    def test_slow_request_recorded_and_logged(self, caplog):
        telemetry = Telemetry(slow_threshold=0.01, shard=1)
        trace_id = new_trace_id()
        telemetry.span(trace_id, "execute", 0.05)
        with caplog.at_level(logging.WARNING, logger="repro.serving.slow"):
            telemetry.finish(
                trace_id, 0.05, op="submit", client="alice", program="p"
            )
        assert telemetry.registry.counter_value(
            "serving.slow_requests", program="p"
        ) == 1
        records = telemetry.slow()
        assert len(records) == 1
        assert records[0]["trace_id"] == trace_id
        assert records[0]["shard"] == 1
        assert [s["stage"] for s in records[0]["spans"]] == ["execute"]
        assert any(
            getattr(r, "trace_id", None) == trace_id for r in caplog.records
        )

    def test_slow_is_newest_first_and_limited(self):
        telemetry = Telemetry(slow_threshold=0.0)
        for i in range(5):
            telemetry.finish(None, float(i + 1), client=f"c{i}")
        records = telemetry.slow(limit=2)
        assert len(records) == 2
        assert records[0]["client"] == "c4"
        assert records[1]["client"] == "c3"

    def test_slow_ring_keeps_the_newest_slow_capacity_records(self):
        telemetry = Telemetry(slow_threshold=0.0)
        total = SLOW_CAPACITY + 3
        for i in range(total):
            telemetry.finish(None, 1.0, client=f"c{i}", program="p")
        records = telemetry.slow()
        assert len(records) == SLOW_CAPACITY
        assert records[0]["client"] == f"c{total - 1}"
        assert records[-1]["client"] == f"c{total - SLOW_CAPACITY}"
        # The counter counts every slow request, evicted or not.
        assert telemetry.registry.counter_value(
            "serving.slow_requests", program="p"
        ) == total

    def test_merge_traces_orders_spans_and_keeps_metadata(self):
        trace_id = new_trace_id()
        router = {
            "trace_id": trace_id,
            "spans": [{"stage": "router_forward", "seconds": 0.01, "ts": 2.0}],
        }
        shard = {
            "trace_id": trace_id,
            "client": "alice",
            "total_seconds": 0.05,
            "spans": [{"stage": "execute", "seconds": 0.02, "ts": 1.0}],
        }
        merged = merge_traces([None, router, shard])
        assert merged["trace_id"] == trace_id
        assert merged["client"] == "alice"
        assert [s["stage"] for s in merged["spans"]] == [
            "execute",
            "router_forward",
        ]
        assert merge_traces([None, None]) is None


class TestSpliceField:
    def test_splices_into_encoded_response(self):
        line = json.dumps(messages.build_response(payload={"pong": True})) + "\n"
        spliced = messages.splice_field(line, "trace_id", "abc")
        decoded = json.loads(spliced)
        assert decoded["trace_id"] == "abc"
        assert decoded["pong"] is True
        assert spliced.endswith("\n") == line.endswith("\n")

    def test_splices_structured_value(self):
        spliced = messages.splice_field(
            '{"ok":true}', "trace", {"spans": [1, 2]}
        )
        assert json.loads(spliced) == {"ok": True, "trace": {"spans": [1, 2]}}

    def test_splices_into_empty_object(self):
        assert json.loads(messages.splice_field("{}", "k", 1)) == {"k": 1}


class TestEngineAccounting:
    """Satellite: queue/execute time observed exactly once per job."""

    def _run_jobs(self, max_batch, jobs):
        telemetry = Telemetry(slow_threshold=10.0)
        engine = JobEngine(
            handler=lambda batch: [job.payload for job in batch],
            workers=1,
            max_batch=max_batch,
            batch_window=0.002,
            telemetry=telemetry,
        )
        try:
            futures = [
                engine.submit("group", i, client="alice", program="p")
                for i in range(jobs)
            ]
            assert [f.result(5) for f in futures] == list(range(jobs))
        finally:
            engine.close()
        return telemetry, engine

    def test_shutdown_cancellations_are_counted(self):
        telemetry = Telemetry(slow_threshold=10.0)
        entered = threading.Event()
        release = threading.Event()

        def gated(batch):
            entered.set()
            release.wait(10)
            return [job.payload for job in batch]

        engine = JobEngine(gated, workers=1, max_batch=1, telemetry=telemetry)
        busy = engine.submit("g", "busy", client="alice")
        assert entered.wait(10)
        pending = [engine.submit("g", i, client="alice") for i in range(4)]
        stopper = threading.Thread(
            target=lambda: engine.shutdown(wait=True, cancel_pending=True)
        )
        stopper.start()
        release.set()
        stopper.join(10)
        assert not stopper.is_alive()
        assert busy.result(0) == "busy"
        assert all(future.cancelled() for future in pending)
        assert telemetry.registry.counter_value(
            "serving.requests.cancelled", client="alice"
        ) == 4
        assert telemetry.registry.total("serving.requests.cancelled") == 4
        assert engine.metrics_snapshot()["cancelled"] == 4

    def test_view_stays_exact_past_the_series_cap(self):
        telemetry = Telemetry(slow_threshold=10.0, max_series=4)
        engine = JobEngine(
            lambda batch: [job.payload for job in batch],
            workers=1,
            max_batch=1,
            telemetry=telemetry,
        )
        try:
            for i in range(10):
                engine.submit("g", i, client=f"rotating-{i}", program="p").result(5)
        finally:
            engine.close()
        assert telemetry.registry.dropped_series > 0
        view = engine.metrics_snapshot()
        assert view["submitted"] == 10
        assert view["completed"] == 10
        assert view["batches"] == 10
        # A folded batch has no size label: counted, but in no size bucket.
        assert sum(view["batch_size_counts"].values()) <= 10
        assert set(view["batch_size_counts"]) <= {1}

    def test_view_matches_the_registry(self):
        telemetry, engine = self._run_jobs(4, 6)
        registry = telemetry.registry
        view = engine.metrics_snapshot()
        assert view["batches"] == registry.total("serving.batches")
        assert view["batches"] == sum(view["batch_size_counts"].values())
        assert sum(size * n for size, n in view["batch_size_counts"].items()) == 6
        assert view["largest_batch"] == max(view["batch_size_counts"])
        assert view["mean_batch_size"] == round(6 / view["batches"], 3)
        assert "throughput_per_second" not in view

    @pytest.mark.parametrize("max_batch", [1, 4])
    def test_every_job_observed_exactly_once(self, max_batch):
        jobs = 6
        telemetry, engine = self._run_jobs(max_batch, jobs)
        registry = telemetry.registry
        queue_hist = registry.histogram_of(
            "serving.queue.seconds", client="alice", program="p"
        )
        execute_hist = registry.histogram_of(
            "serving.execute.seconds", client="alice", program="p"
        )
        # Solo batches (max_batch=1) and grouped batches must both account
        # each completed job once — the asymmetry this PR fixed.
        assert queue_hist.count == jobs
        assert execute_hist.count == jobs
        assert registry.counter_value(
            "serving.requests.submitted", client="alice", program="p"
        ) == jobs
        assert registry.counter_value(
            "serving.requests.completed", client="alice", program="p"
        ) == jobs
        summary = engine.metrics_snapshot()
        assert summary["submitted"] == jobs
        assert summary["completed"] == jobs

    def test_batched_execute_time_is_amortized(self):
        # One batch of 4 with a sleeping handler: per-job execute time is the
        # batch's wall time divided by its size, so the 4 observations must
        # sum to ~one batch execution, not four.
        telemetry = Telemetry(slow_threshold=10.0)
        engine = JobEngine(
            handler=lambda batch: (time.sleep(0.05), [j.payload for j in batch])[1],
            workers=1,
            max_batch=4,
            batch_window=0.05,
            telemetry=telemetry,
        )
        try:
            futures = [
                engine.submit("group", i, client="alice", program="p")
                for i in range(4)
            ]
            [f.result(5) for f in futures]
        finally:
            engine.close()
        hist = telemetry.registry.histogram_of(
            "serving.execute.seconds", client="alice", program="p"
        )
        assert hist.count == 4
        assert 0.04 <= hist.sum <= 0.5

    def test_throttled_and_rejected_counters(self):
        telemetry = Telemetry()
        engine = JobEngine(
            handler=lambda batch: [j.payload for j in batch],
            workers=1,
            fairness=FairnessPolicy(quota_rps=0.001, burst=1.0),
            telemetry=telemetry,
        )
        try:
            engine.submit("group", 0, client="alice").result(5)
            with pytest.raises(QuotaExceededError):
                engine.submit("group", 1, client="alice")
        finally:
            engine.close()
        assert telemetry.registry.counter_value(
            "serving.requests.throttled", client="alice"
        ) == 1


#: Where each section of ``EvaServer.stats()`` lives in the snapshot.
STATS_PREFIXES = {
    "registry": "serving.registry",
    "sessions": "serving.sessions",
    "session_store": "serving.store",
    "engine": "serving.engine",
    "quota": "serving.quota",
}
#: Stats names whose series is named otherwise, and derived stats with none.
STATS_RENAMED = {
    "serving.registry.artifacts": "serving.artifacts",
    "serving.quota.throttled": "serving.requests.throttled",
}
STATS_DERIVED = {"serving.registry.hit_rate", "serving.sessions.hit_rate"}


def stats_numbers(stats):
    """Every number of ``stats()`` under the series name it is a view of."""
    numbers = {}

    def walk(name, value):
        name = STATS_RENAMED.get(name, name)
        if isinstance(value, dict):
            for key, item in value.items():
                walk(f"{name}.{key}", item)
        elif isinstance(value, (int, float)) and name not in STATS_DERIVED:
            numbers[name] = float(value)

    for section, prefix in STATS_PREFIXES.items():
        # Per-client in-flight counts are keyed by client-chosen ids.
        walk(prefix, {k: v for k, v in stats[section].items() if k != "clients_inflight"})
    return numbers


class TestOneSource:
    def test_stats_and_metrics_read_the_same_series(self, tmp_path):
        """Every count and size of ``stats()`` is the ``metrics`` series of its
        name, each name has one kind, and the exposition one ``# TYPE`` each."""
        from repro.api import ClientKit, CompiledProgram
        from repro.serving import ArtifactCache, ProgramRegistry, SessionStore

        server = EvaServer(
            backend=MockBackend(error_model="none"),
            workers=1,
            artifact_cache=ArtifactCache(tmp_path / "artifacts"),
            session_store=SessionStore(tmp_path / "sessions", ttl=60),
            fairness=FairnessPolicy(quota_rps=0.001, burst=5),
        )
        # One entry, so a second program evicts the first.
        server.registry = ProgramRegistry(
            capacity=1, artifacts=server.artifact_cache, telemetry=server.telemetry
        )
        kit = ClientKit(
            CompiledProgram.compile(make_poly_program("a").graph),
            backend=MockBackend(error_model="none"),
            client_id="carol",
        )
        try:
            server.register("a", make_poly_program("a"))
            server.register("b", make_poly_program("b", vec_size=32))
            for name in ("a", "b", "a", "a", "a"):
                server.request(name, {"x": [1.0]}, client_id="alice")
            server.create_session("a", "carol", kit.evaluation_context())
            with pytest.raises(QuotaExceededError):
                server.request("a", {"x": [1.0]}, client_id="alice")
            with pytest.raises(QuotaExceededError):
                server.create_session("a", "alice", kit.evaluation_context())
            stats = server.stats()
            snapshot = server.metrics_snapshot()
        finally:
            server.close()

        kinds, series = {}, {}
        for kind in ("counters", "gauges", "histograms"):
            for entry in snapshot[kind]:
                kinds.setdefault(entry["name"], set()).add(kind)
                if kind != "histograms":
                    series[entry["name"]] = series.get(entry["name"], 0.0) + entry["value"]
        numbers = stats_numbers(stats)
        assert {name: series.get(name) for name in numbers} == numbers
        assert {name: kind for name, kind in kinds.items() if len(kind) > 1} == {}
        type_lines = [line for line in render_prometheus(snapshot).splitlines() if line.startswith("# TYPE ")]
        assert len(type_lines) == len(set(type_lines)) == len(kinds)

        # The run covered every event the views count.
        registry, sessions = stats["registry"], stats["sessions"]
        assert registry["hits"] and registry["misses"] and registry["evictions"]
        assert all(registry["artifacts"][key] for key in ("hits", "misses", "stores"))
        assert sessions["hits"] and sessions["misses"] and sessions["client_keyed"] == 1
        assert stats["quota"]["throttled"] == stats["engine"]["throttled"] == 2
        assert stats["session_store"]["records"] == 1
        for name in ("serving.registry.artifacts.hits", "serving.quota.throttled"):
            assert name not in kinds

    def test_concurrent_lookups_lose_no_count(self):
        """Counts and size gauges written from many threads stay exact."""
        import sys

        from repro.core import compile_program
        from repro.serving import SessionManager

        compilation = compile_program(make_poly_program().graph)
        sessions = SessionManager(MockBackend(error_model="none"), capacity=4)
        workers, lookups = 8, 100
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda i=i: [
                        sessions.get_session(compilation, f"client{(i + n) % 6}")
                        for n in range(lookups)
                    ]
                )
                for i in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        summary = sessions.summary()
        assert summary["hits"] + summary["misses"] == workers * lookups
        assert summary["sessions"] == summary["clients"] == len(sessions) == 4


class TestServerTelemetryEndToEnd:
    @pytest.fixture
    def traced_server(self):
        server = EvaServer(
            backend=MockBackend(error_model="none", op_latency=0.01),
            workers=2,
            batch_window=0.0,
            telemetry=Telemetry(slow_threshold=0.005),
        )
        server.register("poly", make_poly_program())
        tcp = EvaTcpServer(server, port=0)
        tcp.start_background()
        try:
            yield tcp
        finally:
            tcp.shutdown()
            server.close()

    def test_traced_submit_spans_cover_wall_clock(self, traced_server):
        host, port = traced_server.address
        x = [float(i) for i in range(16)]
        with ServingClient(host, port, timeout=15) as client:
            started = time.perf_counter()
            outputs = client.submit("poly", {"x": x}, client_id="alice", trace=True)
            wall = time.perf_counter() - started
        assert outputs["y"].shape[0] == 16
        trace = client.last_trace
        assert trace is not None
        stages = [span["stage"] for span in trace["spans"]]
        for stage in ("quota_admission", "queue_wait", "execute", "serialize_reply"):
            assert stage in stages, stages
        span_sum = sum(span["seconds"] for span in trace["spans"])
        # The per-stage spans must account for the request's latency: within
        # 10% of the client-measured wall clock (the op_latency backend makes
        # execution dominate, so scheduling noise stays inside the band).
        assert abs(span_sum - wall) / wall < 0.10, (span_sum, wall)
        assert trace["total_seconds"] == pytest.approx(span_sum, rel=0.25)

    def test_untraced_submit_has_no_trace_echo_but_counts(self, traced_server):
        host, port = traced_server.address
        x = [float(i) for i in range(16)]
        with ServingClient(host, port, timeout=15) as client:
            client.submit("poly", {"x": x}, client_id="alice")
            assert client.last_trace is None
            metrics = client.metrics()
        counters = {
            (c["name"], c["labels"].get("client")): c["value"]
            for c in metrics["metrics"]["counters"]
        }
        assert counters[("serving.requests.submitted", "alice")] >= 1
        assert counters[("serving.requests.completed", "alice")] >= 1

    def test_metrics_op_includes_absorbed_component_gauges(self, traced_server):
        host, port = traced_server.address
        x = [float(i) for i in range(16)]
        with ServingClient(host, port, timeout=15) as client:
            client.submit("poly", {"x": x}, client_id="alice")
            metrics = client.metrics(prometheus=True)
        gauge_names = {g["name"] for g in metrics["metrics"]["gauges"]}
        assert any(name.startswith("serving.engine.") for name in gauge_names)
        assert any(name.startswith("serving.registry.") for name in gauge_names)
        text = metrics["prometheus"]
        assert "serving_requests_submitted_total" in text
        assert "serving_queue_seconds_bucket" in text

    def test_slow_request_visible_through_wire(self, traced_server):
        host, port = traced_server.address
        x = [float(i) for i in range(16)]
        with ServingClient(host, port, timeout=15) as client:
            client.submit("poly", {"x": x}, client_id="alice", trace=True)
            trace_id = client.last_trace["trace_id"]
            slow = client.slow()
            fetched = client.trace_of(trace_id)
        assert any(record["trace_id"] == trace_id for record in slow)
        assert fetched["trace_id"] == trace_id
        assert fetched["spans"]

    def test_quota_rejection_echoes_trace_id(self):
        server = EvaServer(
            backend=MockBackend(error_model="none"),
            workers=1,
            batch_window=0.0,
            fairness=FairnessPolicy(quota_rps=0.001, burst=1.0),
        )
        server.register("poly", make_poly_program())
        tcp = EvaTcpServer(server, port=0)
        tcp.start_background()
        x = [float(i) for i in range(16)]
        try:
            with ServingClient(host=tcp.address[0], port=tcp.address[1]) as client:
                client.submit("poly", {"x": x}, client_id="alice", trace=True)
                with pytest.raises(QuotaExceededError) as info:
                    client.submit("poly", {"x": x}, client_id="alice", trace=True)
            assert info.value.trace_id is not None
        finally:
            tcp.shutdown()
            server.close()


class TestStructuredLogging:
    def test_json_log_formatter_emits_parseable_events(self):
        from repro.serving.telemetry import _JsonLogFormatter

        record = logging.LogRecord(
            name="repro.serving.slow",
            level=logging.WARNING,
            pathname=__file__,
            lineno=1,
            msg="slow request: %.3fs",
            args=(1.25,),
            exc_info=None,
        )
        record.trace_id = "abc"
        record.client = "alice"
        record.op = "submit"
        event = json.loads(_JsonLogFormatter().format(record))
        assert event["level"] == "WARNING"
        assert event["event"] == "slow request: 1.250s"
        assert event["trace_id"] == "abc"
        assert event["client"] == "alice"
        assert event["op"] == "submit"

    def test_configure_logging_is_idempotent(self):
        from repro.serving import configure_logging

        logger = logging.getLogger("repro")
        previous = list(logger.handlers)
        try:
            configure_logging(json_logs=True, level="DEBUG")
            configure_logging(json_logs=True, level="INFO")
            assert len(logger.handlers) == 1
            assert logger.level == logging.INFO
            with pytest.raises(ValueError):
                configure_logging(level="NOPE")
        finally:
            for handler in list(logger.handlers):
                logger.removeHandler(handler)
            for handler in previous:
                logger.addHandler(handler)


class TestCliFlags:
    def test_serve_parser_accepts_telemetry_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "prog.evaproto",
                "--log-json",
                "--log-level",
                "DEBUG",
                "--slow-threshold",
                "0.25",
            ]
        )
        assert args.log_json is True
        assert args.log_level == "DEBUG"
        assert args.slow_threshold == 0.25

    def test_submit_parser_accepts_trace(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["submit", "poly", "--inputs", "in.json", "--trace"]
        )
        assert args.trace is True

    def test_cluster_parser_accepts_observability_actions(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["cluster", "metrics", "--prometheus"])
        assert args.action == "metrics" and args.prometheus
        args = parser.parse_args(["cluster", "trace", "abc123"])
        assert args.action == "trace" and args.trace_id == "abc123"
        args = parser.parse_args(["cluster", "slow", "--limit", "5"])
        assert args.action == "slow" and args.limit == 5
