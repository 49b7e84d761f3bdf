"""Futures-based async job engine: bounded queue, fair dequeue, group batching.

The engine decouples request admission from execution.  ``submit`` enqueues a
:class:`Job` onto a bounded queue (applying back-pressure when full) and
returns a :class:`concurrent.futures.Future`; worker threads pull jobs off
the queue and hand them to the server's handler.  Jobs carry a *group key*
(program name + client) and a worker drains every queued job of the group it
picked up — optionally lingering up to ``batch_window`` seconds for
stragglers — so the slot batcher downstream sees whole batches, not single
requests.  The window is a ceiling: a batch whose jobs came in through a
listener and hold one from every live connection (:meth:`JobEngine.set_callers`)
closes at once, because a connection has one request in flight at most and
no one else is left to join.

Scheduling is **fair queueing** across clients, not global FIFO: each
client has its own arrival queue and a virtual-time counter advanced by one
per dequeued job, and workers always serve the client with the smallest
virtual time.  Every client has the same weight: under contention a client
flooding the queue gets an equal share instead of monopolizing the workers,
so a light client's jobs never sit behind a greedy client's entire backlog.
With one client (or balanced arrivals) this degenerates to the old FIFO order.

Admission additionally enforces a per-client
:class:`~repro.serving.quotas.FairnessPolicy` when one is configured: a rate
quota (token bucket) and an in-flight cap, rejected with
:class:`~repro.errors.QuotaExceededError` carrying ``retry_after`` — the
serving layer's 429.  The global bounded queue (``QueueFullError``) remains
the server-protecting backstop.

Requests may carry a **deadline** (``deadline_ms``) and an **SLO class**
(``tight`` / ``standard`` / ``relaxed``); one that carries neither is
``standard`` with no deadline.  Admission models the request's
queue wait (observed recent waits and current backlog) plus its solo
execution estimate and rejects requests whose deadline is already infeasible
with :class:`~repro.errors.DeadlineInfeasibleError` — executing them would
only burn capacity on a guaranteed miss.  Batch formation then decides
batch-vs-solo *per request* against its deadline (the DiLaServe shape): a
tight request never lingers to fill lanes, a relaxed one always amortizes,
and a standard one lingers only as long as its slack allows.  Outcomes are
counted as ``serving.slo.attained`` / ``missed`` / ``rejected``.

Every event — submission, outcome, throttle, cancellation, batch, queue wait
and amortized execution time — is written once, into the engine's
:class:`~repro.serving.telemetry.Telemetry` registry under its catalogued
name; :meth:`JobEngine.metrics_snapshot` (``stats()["engine"]``) is a view
summed from that registry.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional

from ..core.serialization.messages import SLO_CLASSES
from ..errors import DeadlineInfeasibleError, QueueFullError, ServingError
from .batching import linger_budget
from .quotas import FairnessPolicy, QuotaLedger
from .telemetry import Telemetry

#: Samples of recent queue waits / batch executions kept for the deadline-
#: admission model (bounded so the estimate tracks the current regime).
_RECENT_SAMPLES = 256


def _percentile(samples: List[float], q: float) -> float:
    """The ``q``-quantile of ``samples`` (nearest-rank; 0.0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(int(q * len(ordered)), len(ordered) - 1)
    return ordered[rank]


@dataclass
class Job:
    """One queued unit of serving work."""

    id: int
    group: Hashable
    payload: Any
    future: "Future[Any]"
    submitted_at: float
    client: str = "default"
    started_at: float = 0.0
    finished_at: float = 0.0
    #: Distributed-trace id propagated from the wire request (None when the
    #: request was untraced); spans recorded for this job carry it.
    trace_id: Optional[str] = None
    #: Program name for metric labels (the group key is opaque to the engine).
    program: Optional[str] = None
    #: Time this job's batch spent forming (drain + linger), set by the
    #: dequeue side so the worker can attribute it as a span.
    batch_form_seconds: float = 0.0
    #: Effective SLO class (``tight`` / ``standard`` / ``relaxed``).
    slo_class: str = "standard"
    #: Absolute monotonic deadline, or None when the request carries none.
    deadline_at: Optional[float] = None
    #: Modeled solo execution time, used by batch formation to cap lingering.
    execute_estimate: float = 0.0
    #: Whether same-group jobs can share one evaluation with this one; a job
    #: that cannot gains nothing from company, so its batch never lingers.
    can_share: bool = True
    #: The listener connection the job came in on (None for an in-process
    #: submit), which batch formation holds against the live connections.
    caller: Optional[Hashable] = None
    #: Why the job's batch stopped forming: ``full``, ``callers``, ``window``
    #: or ``no_linger`` (set by the dequeue side, like ``batch_form_seconds``).
    batch_closed: str = ""

    @property
    def queue_seconds(self) -> float:
        """Seconds the job waited in the queue before a worker took it."""
        return max(self.started_at - self.submitted_at, 0.0)


class JobEngine:
    """Bounded-queue worker pool executing grouped jobs through a handler.

    ``handler(jobs)`` receives a non-empty list of jobs sharing one group key
    and returns one result per job (an item may be an exception to fail just
    that job); if the handler itself raises, the whole batch fails.

    ``fairness`` (a :class:`~repro.serving.quotas.FairnessPolicy`) enables
    per-client admission control — rate quota and in-flight cap.
    """

    def __init__(
        self,
        handler: Callable[[List[Job]], List[Any]],
        workers: int = 2,
        queue_size: int = 256,
        max_batch: int = 8,
        batch_window: float = 0.0,
        fairness: Optional[FairnessPolicy] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("the engine needs at least one worker")
        if queue_size < 1:
            raise ValueError("queue size must be at least 1")
        self.handler = handler
        self.queue_size = queue_size
        self.max_batch = max(int(max_batch), 1)
        self.batch_window = max(float(batch_window), 0.0)
        self.ledger = QuotaLedger(fairness)
        #: The one place engine events are counted (and spans recorded).
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.telemetry.inc("serving.requests.throttled", 0.0)
        self.telemetry.set_gauge("serving.quota.enabled", self.ledger.enabled)
        if fairness is not None and fairness.quota_rps is not None:
            self.telemetry.set_gauge("serving.quota.quota_rps", fairness.quota_rps)
        if fairness is not None and fairness.max_inflight is not None:
            self.telemetry.set_gauge("serving.quota.max_inflight", fairness.max_inflight)
        #: Per-client arrival queues; jobs of one client stay FIFO relative
        #: to each other, but *clients* are interleaved by virtual time.
        self._queues: "OrderedDict[str, deque[Job]]" = OrderedDict()
        #: Virtual finish time per active client, and the engine-wide virtual
        #: clock a newly active client starts from (so returning clients do
        #: not replay the service they missed while idle).
        self._vtime: Dict[str, float] = {}
        self._clock = 0.0
        self._queued = 0
        self._worker_count = int(workers)
        #: Recent per-job queue waits (segmented by SLO class — a relaxed
        #: job's wait includes deliberate linger a tight job never pays) and
        #: per-batch execute times, feeding the deadline-admission model
        #: (mutated under ``self._cond``).
        self._wait_recent: Dict[str, "deque[float]"] = {}
        self._execute_recent: "deque[float]" = deque(maxlen=_RECENT_SAMPLES)
        self._cond = threading.Condition()
        self._closed = False
        #: Keys of the live listener connections; None while no listener
        #: reports them (an in-process engine lingers out every window).
        self._callers: Optional[FrozenSet[Hashable]] = None
        self._ids = itertools.count()
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"eva-serve-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- deadline admission model ------------------------------------------------
    def wait_estimate(
        self, slo_class: str = "standard", client: str = "default"
    ) -> float:
        """Modeled queue wait of one request submitted right now (seconds).

        The larger of two signals, both shaped by *who* is asking:

        * the observed recent queue-wait p95 **of the same SLO class** — a
          relaxed job's wait includes the linger it deliberately paid to fill
          lanes, so class-blind percentiles would reject tight traffic on a
          server that serves its tight requests promptly;
        * a backlog estimate reflecting the fair dequeue: the
          client's *own* queued jobs (plus the request itself) each wait one
          round of service across the currently active clients, spread over
          the workers.  Global queue depth is deliberately not the unit — a
          deep queue from one flooding client does not delay a new client
          under fair queueing.
        """
        with self._cond:
            client_queued = len(self._queues.get(client, ()))
            active = max(len(self._queues), 1)
            waits = list(self._wait_recent.get(slo_class, ()))
            execs = list(self._execute_recent)
        observed = _percentile(waits, 0.95)
        mean_execute = sum(execs) / len(execs) if execs else 0.0
        rounds = client_queued + 1
        backlog = rounds * active * mean_execute / max(self._worker_count, 1)
        return max(observed, backlog)

    def execute_estimate(self) -> float:
        """Observed solo-execution estimate: recent batch-execute p95."""
        with self._cond:
            execs = list(self._execute_recent)
        return _percentile(execs, 0.95)

    def set_callers(self, callers: Iterable[Hashable]) -> None:
        """Tell batch formation which listener connections are live.

        A listener calls this on every open and close.  A lingering batch
        whose jobs all carry a ``caller`` and hold one from each of these
        closes at once: a connection sends its next request only after its
        last one is answered, so nobody is left who could join.
        """
        with self._cond:
            self._callers = frozenset(callers)
            self._cond.notify_all()

    # -- submission --------------------------------------------------------------
    def admit(self, client: str) -> None:
        """Charge one request of ``client`` to the quota ledger.

        Every shard-side refusal passes here and is counted once, as
        ``serving.requests.throttled``; the caller owes ``ledger.release``
        for an admitted request.
        """
        try:
            self.ledger.admit(client)
        except ServingError:
            self.telemetry.inc("serving.requests.throttled", client=client)
            raise

    def submit(
        self,
        group: Hashable,
        payload: Any,
        timeout: Optional[float] = None,
        client: str = "default",
        trace_id: Optional[str] = None,
        program: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        slo_class: Optional[str] = None,
        execute_estimate: Optional[float] = None,
        can_share: bool = True,
        caller: Optional[Hashable] = None,
    ) -> "Future[Any]":
        """Enqueue a job for ``client`` and return its future.

        Per-client quotas are checked first: a violated rate or in-flight cap
        raises :class:`~repro.errors.QuotaExceededError` immediately (no
        queue-space wait — a throttled client must back off, not block).
        Then blocks while the global queue is full; with a ``timeout``,
        raises :class:`~repro.errors.QueueFullError` when space does not free
        up in time (the back-pressure signal a front-end turns into "try
        later").

        ``deadline_ms`` and ``slo_class`` attach SLO semantics: a request
        without them is ``standard`` with no deadline.  A request whose
        modeled queue wait plus solo execution (``execute_estimate``, falling
        back to the engine's observed history) already exceeds its deadline
        is rejected with
        :class:`~repro.errors.DeadlineInfeasibleError` carrying a
        ``retry_after`` hint.  The linger a batch may add is deliberately
        *not* part of the admission model: a request whose slack only covers
        execution goes solo, it is not rejected.

        ``can_share`` says whether the handler can answer same-group jobs
        with one shared evaluation; when it cannot, batch formation does not
        linger for stragglers (already-queued same-group jobs still ride
        along, and SLO accounting is unchanged).  ``caller`` names the
        listener connection the request came in on (see :meth:`set_callers`).

        ``trace_id`` labels every span the engine records for this job;
        ``program`` labels its metric series.
        """
        client = str(client)
        telemetry = self.telemetry
        slo = slo_class if slo_class is not None else "standard"
        if slo not in SLO_CLASSES:
            raise ValueError(f"unknown SLO class {slo!r}; expected one of {SLO_CLASSES}")
        estimate = float(execute_estimate) if execute_estimate else 0.0
        if deadline_ms is not None:
            deadline_s = float(deadline_ms) / 1000.0
            if deadline_s <= 0:
                raise ValueError("deadline_ms must be positive")
            if estimate <= 0.0:
                estimate = self.execute_estimate()
            wait = self.wait_estimate(slo, client)
            if wait + estimate > deadline_s:
                telemetry.inc("serving.slo.rejected", slo_class=slo, client=client)
                raise DeadlineInfeasibleError(
                    f"deadline of {deadline_ms:g}ms is infeasible: modeled "
                    f"queue wait {wait * 1000:.1f}ms + execution "
                    f"{estimate * 1000:.1f}ms already exceeds it",
                    retry_after=max(wait, 0.05),
                )
        else:
            deadline_s = None
        admit_started = time.perf_counter()
        self.admit(client)
        telemetry.span(
            trace_id,
            "quota_admission",
            time.perf_counter() - admit_started,
            client=client,
        )
        admitted = self.ledger.enabled
        future: "Future[Any]" = Future()
        if admitted:
            # Exactly one release per admitted request, however it settles
            # (result, exception, or cancellation).
            future.add_done_callback(lambda _f, c=client: self.ledger.release(c))
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            with self._cond:
                while self._queued >= self.queue_size and not self._closed:
                    remaining = None if deadline is None else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        telemetry.inc("serving.requests.rejected", client=client)
                        raise QueueFullError(
                            f"job queue is full ({self.queue_size} jobs) and the "
                            f"submit deadline of {timeout:g}s expired"
                        )
                    self._cond.wait(remaining)
                if self._closed:
                    raise ServingError("the job engine has been shut down")
                now = time.monotonic()
                job = Job(
                    id=next(self._ids),
                    group=group,
                    payload=payload,
                    future=future,
                    submitted_at=now,
                    client=client,
                    trace_id=trace_id,
                    program=program,
                    slo_class=slo,
                    deadline_at=None if deadline_s is None else now + deadline_s,
                    execute_estimate=estimate,
                    can_share=can_share,
                    caller=caller,
                )
                queue = self._queues.get(client)
                if queue is None:
                    queue = self._queues[client] = deque()
                    # A newly active client starts at the engine's virtual
                    # clock: it competes fairly from now on, it does not get
                    # to "catch up" on service it never requested.
                    self._vtime[client] = max(self._clock, self._vtime.get(client, 0.0))
                queue.append(job)
                self._queued += 1
                telemetry.inc(
                    "serving.requests.submitted", client=client, program=program
                )
                telemetry.set_gauge("serving.queue.depth", self._queued)
                self._cond.notify_all()
        except BaseException:
            # The job never entered the queue; settle the future so the
            # done-callback returns the in-flight slot taken by admit().
            future.cancel()
            raise
        return future

    # -- worker side -------------------------------------------------------------
    def _next_client(self) -> Optional[str]:
        """The active client with the smallest virtual time (lock held)."""
        best: Optional[str] = None
        best_vtime = float("inf")
        for client, queue in self._queues.items():
            if not queue:
                continue
            vtime = self._vtime.get(client, 0.0)
            if vtime < best_vtime:
                best, best_vtime = client, vtime
        return best

    def _take_batch(self) -> Optional[List[Job]]:
        """Pop the fair-share client's next job plus its queued same-group
        jobs (None on shutdown)."""
        with self._cond:
            while self._queued == 0 and not self._closed:
                self._cond.wait()
            if self._queued == 0:
                return None
            client = self._next_client()
            assert client is not None  # _queued > 0 implies an active queue
            queue = self._queues[client]
            form_started = time.perf_counter()
            first = queue.popleft()
            self._queued -= 1
            batch = [first]
            self._drain_group(batch, queue)
            # Batch-vs-solo is decided per request against its SLO: a tight
            # first job gets a zero linger budget (already-queued same-group
            # jobs above still ride along), a relaxed one the full window,
            # a standard one its deadline slack — and a job that cannot share
            # an evaluation never waits for company.  The budget is a ceiling:
            # the linger ends once nobody is left who could join.
            now = time.monotonic()
            window = linger_budget(
                first.slo_class,
                self.batch_window,
                None if first.deadline_at is None else first.deadline_at - now,
                first.execute_estimate,
                first.can_share,
            )
            deadline = now + window
            closed = self._close_reason(batch, window)
            while closed is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    closed = "window"
                    break
                self._cond.wait(remaining)
                self._drain_group(batch, self._queues.get(client, deque()))
                closed = self._close_reason(batch, window)
            # Charge the client's virtual time for the service received: one
            # unit per job.  The engine clock advances with the served client
            # so newly active clients start at "now" in virtual time.
            self._vtime[client] = self._vtime.get(client, 0.0) + len(batch)
            self._clock = max(self._clock, self._vtime[client])
            if not self._queues.get(client):
                # Drop empty queues (and their vtime) so per-client state
                # stays bounded by the number of *active* clients.
                self._queues.pop(client, None)
                self._vtime.pop(client, None)
            form_seconds = time.perf_counter() - form_started
            for job in batch:
                job.batch_form_seconds = form_seconds
                job.batch_closed = closed
            self.telemetry.set_gauge("serving.queue.depth", self._queued)
            self._cond.notify_all()
            return batch

    def _close_reason(self, batch: List[Job], window: float) -> Optional[str]:
        """Why ``batch`` stops forming now, or None while company can still
        join it (lock held).  ``callers``: every job came in through the
        listener and the batch holds one from each live connection (a
        cancelled job holds nobody: its caller is free to send again)."""
        if len(batch) >= self.max_batch:
            return "full"
        if window <= 0:
            return "no_linger"
        held = {job.caller for job in batch if not job.future.cancelled()}
        if self._callers is not None and None not in held and self._callers <= held:
            return "callers"
        return None

    def _drain_group(self, batch: List[Job], queue: "deque[Job]") -> None:
        """Pull same-group jobs out of one client's queue (lock held)."""
        group = batch[0].group
        kept: "deque[Job]" = deque()
        while queue and len(batch) < self.max_batch:
            job = queue.popleft()
            if job.group == group:
                batch.append(job)
                self._queued -= 1
            else:
                kept.append(job)
        kept.extend(queue)
        queue.clear()
        queue.extend(kept)

    def _worker_loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            # A caller may have cancelled a future while its job sat queued.
            # Transitioning the survivors to RUNNING here makes later
            # cancellation attempts fail cleanly instead of racing
            # set_result below (an InvalidStateError in this loop would kill
            # the worker and strand every future behind it).
            live = [job for job in batch if job.future.set_running_or_notify_cancel()]
            self._cancel(job for job in batch if job.future.cancelled())
            if not live:
                continue
            batch = live
            started = time.monotonic()
            for job in batch:
                job.started_at = started
            try:
                results: List[Any] = list(self.handler(batch))
                if len(results) != len(batch):
                    raise ServingError(
                        f"handler returned {len(results)} results for "
                        f"{len(batch)} jobs"
                    )
            except BaseException as exc:
                results = [exc] * len(batch)
            finished = time.monotonic()
            execute_seconds = finished - started
            with self._cond:
                self._execute_recent.append(execute_seconds)
                for job in batch:
                    job.finished_at = finished
                    self._wait_recent.setdefault(
                        job.slo_class, deque(maxlen=_RECENT_SAMPLES)
                    ).append(job.queue_seconds)
            # This is the single per-job accounting site: solo batches (len ==
            # 1, including degraded-to-solo fallbacks inside the handler) and
            # grouped batches both pass through here exactly once per job, so
            # queue wait and the batch-amortized execute time are reported
            # uniformly.
            telemetry = self.telemetry
            job_execute = execute_seconds / len(batch)
            telemetry.inc("serving.batches", program=batch[0].program, size=len(batch))
            for job in batch:
                labels = {"client": job.client, "program": job.program}
                telemetry.observe("serving.queue.seconds", job.queue_seconds, **labels)
                telemetry.observe("serving.execute.seconds", job_execute, **labels)
                telemetry.span(
                    job.trace_id, "queue_wait", job.queue_seconds, client=job.client
                )
                telemetry.span(
                    job.trace_id, "batch_form", job.batch_form_seconds,
                    batch_size=len(batch), closed=job.batch_closed,
                )
                telemetry.span(
                    job.trace_id, "execute", job_execute,
                    batch_size=len(batch), program=job.program,
                )
                if job.deadline_at is not None:
                    outcome = "attained" if finished <= job.deadline_at else "missed"
                    telemetry.inc(
                        f"serving.slo.{outcome}",
                        slo_class=job.slo_class,
                        program=job.program,
                    )
            for job, result in zip(batch, results):
                try:
                    labels = {"client": job.client, "program": job.program}
                    if isinstance(result, BaseException):
                        telemetry.inc("serving.requests.failed", **labels)
                        job.future.set_exception(result)
                    else:
                        telemetry.inc("serving.requests.completed", **labels)
                        job.future.set_result(result)
                except InvalidStateError:  # pragma: no cover - narrow race
                    # The future was resolved elsewhere; the worker must
                    # survive to serve the rest of the queue either way.
                    pass

    def _cancel(self, jobs: Iterable[Job]) -> None:
        """Cancel each of ``jobs`` that is not running, and count it."""
        for job in jobs:
            if job.future.cancel():
                self.telemetry.inc("serving.requests.cancelled", client=job.client)

    # -- introspection -----------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, object]:
        """Engine totals, summed from the telemetry registry in one pass.

        ``batch_size_counts`` and ``largest_batch`` read the ``size`` label of
        ``serving.batches``; a batch folded past the series cap still counts
        in ``batches``.  ``queued`` is read under the engine lock.
        """
        sums: Dict[str, float] = {}
        sizes: Dict[int, int] = {}
        for (name, size), value in self.telemetry.registry.totals(split="size").items():
            sums[name] = sums.get(name, 0.0) + value
            if name == "serving.batches" and size:
                sizes[int(size)] = int(value)

        def count(name: str) -> int:
            return int(sums.get(name, 0))

        batches = count("serving.batches")
        finished = count("serving.requests.completed") + count("serving.requests.failed")
        with self._cond:
            queued = self._queued
        return {
            "submitted": count("serving.requests.submitted"),
            "completed": count("serving.requests.completed"),
            "failed": count("serving.requests.failed"),
            "rejected": count("serving.requests.rejected"),
            "throttled": count("serving.requests.throttled"),
            "cancelled": count("serving.requests.cancelled"),
            "deadline_rejected": count("serving.slo.rejected"),
            "slo_attained": count("serving.slo.attained"),
            "slo_missed": count("serving.slo.missed"),
            "batches": batches,
            "largest_batch": max(sizes, default=0),
            "mean_batch_size": round(finished / batches, 3) if batches else 0.0,
            "mean_queue_seconds": (
                round(sums.get("serving.queue.seconds", 0.0) / finished, 6) if finished else 0.0
            ),
            "mean_execute_seconds": (
                round(sums.get("serving.execute.seconds", 0.0) / batches, 6) if batches else 0.0
            ),
            "batch_size_counts": dict(sorted(sizes.items())),
            "queued": queued,
        }

    # -- lifecycle ---------------------------------------------------------------
    def _drain_all(self) -> List[Job]:
        """Remove and return every queued job (lock held)."""
        doomed: List[Job] = []
        for queue in self._queues.values():
            doomed.extend(queue)
            queue.clear()
        self._queues.clear()
        self._vtime.clear()
        self._queued = 0
        return doomed

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop accepting jobs and settle every outstanding future.

        By default queued jobs are *drained*: workers keep executing until the
        queue is empty, so every future resolves with a result or exception.
        With ``cancel_pending`` the queued-but-unstarted jobs are cancelled
        immediately (their futures raise ``CancelledError``) and only the
        batches already in flight run to completion.  With ``wait`` the call
        blocks until the workers exit, at which point every future ever
        accepted by :meth:`submit` is guaranteed to be done — resolved,
        failed, or cancelled — never silently pending.
        """
        with self._cond:
            first_close = not self._closed
            self._closed = True
            doomed: List[Job] = []
            if cancel_pending and first_close:
                doomed = self._drain_all()
            self._cond.notify_all()
        self._cancel(doomed)
        if wait:
            for thread in self._workers:
                thread.join()
            # Workers have exited; nothing can touch the queue anymore.  Any
            # job still sitting in it (a worker died mid-loop) must not leave
            # its caller blocked on a future that will never settle.
            with self._cond:
                leftover = self._drain_all()
            self._cancel(leftover)

    def close(self, wait: bool = True) -> None:
        """Stop accepting jobs; drain the queue, then stop the workers."""
        self.shutdown(wait=wait)

    def __enter__(self) -> "JobEngine":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
