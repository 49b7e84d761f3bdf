"""Percentiles, the ten-samples-beyond rule, the paced schedule and in-memory spans."""

from __future__ import annotations

import random
import statistics
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(values, pct))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def supports_percentile(count: int, pct: int) -> bool:
    """Whether ``count`` samples leave at least ten beyond percentile ``pct``.

    100 samples support p90, 40 support p75, 39 do not.
    """
    return count * (100 - pct) >= MIN_SAMPLES_BEYOND * 100


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median with ``statistics.quantiles(values, n=4)``; 0 for < 2 values."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def paced_schedule(seed: int, seconds: float, rate: float) -> List[float]:
    """Due offsets (seconds from the start) of a paced open loop.

    Uniform spacing at ``rate`` per second.  The phase inside the first
    interval comes from the seed, so different seeds do not all hit the
    server's timers at the same offsets; nothing else is random, which is
    what made the schedule repeat within a tenth where Poisson arrivals did
    not.
    """
    interval = 1.0 / rate
    phase = random.Random(seed).uniform(0.0, interval / 2)
    return [phase + index * interval for index in range(int(seconds * rate))]


class Tracer:
    """In-memory spans: name, start, end, parent span, request id.

    Spans are recorded around the harness's own calls into public functions;
    server-side stages arrive as durations in a reply and are attached with
    :meth:`add` under the round trip that carried them.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []

    @contextmanager
    def span(
        self, name: str, request: Optional[str] = None, parent: Optional[int] = None
    ) -> Iterator[int]:
        index = len(self.spans)
        record = {"name": name, "request": request, "parent": parent, "start": time.perf_counter()}
        self.spans.append(record)
        try:
            yield index
        finally:
            record["end"] = time.perf_counter()
            record["seconds"] = record["end"] - record["start"]

    def add(
        self,
        name: str,
        seconds: float,
        request: Optional[str] = None,
        parent: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        """Attach a span known only by its duration (a server-side stage)."""
        self.spans.append(
            {"name": name, "request": request, "parent": parent, "seconds": float(seconds), **attrs}
        )
        return len(self.spans) - 1

    def seconds_by_name(self, requests: Optional[set] = None) -> Dict[str, List[float]]:
        """Span durations grouped by name (optionally only the given requests)."""
        grouped: Dict[str, List[float]] = {}
        for record in self.spans:
            if requests is not None and record["request"] not in requests:
                continue
            grouped.setdefault(record["name"], []).append(record["seconds"])
        return grouped

    def self_seconds(self) -> List[float]:
        """Per span: its duration minus the part its direct children cover."""
        result = [record["seconds"] for record in self.spans]
        for record in self.spans:
            if record["parent"] is not None:
                result[record["parent"]] -= record["seconds"]
        return result


#: Spans that only hold children.  Their self time is time no layer span
#: explains; a leaf's (or ``queue_wait``'s) self time is that layer's work.
CONTAINER_SPANS = ("request", "net.roundtrip")


def unattributed_fraction(tracer: Tracer) -> float:
    """Self time of the container spans over the summed request wall."""
    wall = 0.0
    unexplained = 0.0
    for record, own in zip(tracer.spans, tracer.self_seconds()):
        if record["name"] == "request":
            wall += record["seconds"]
        if record["name"] in CONTAINER_SPANS:
            unexplained += own
    return unexplained / wall if wall else 0.0
