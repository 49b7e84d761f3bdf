"""Per-client fairness: token-bucket rate quotas and in-flight caps.

The bounded job queue (:class:`~repro.serving.jobs.JobEngine`) protects the
*server* from overload, but it is first-come-first-served: one greedy client
can fill the whole queue and starve everyone else.  This module adds the
per-*client* half of admission control:

* :class:`TokenBucket` — the classic rate limiter: a client earns
  ``rate`` tokens per second up to a ``capacity`` burst, and each admitted
  request spends one.  An empty bucket yields the time until the next token,
  which travels to the client as ``retry_after``.
* :class:`FairnessPolicy` — the operator-facing knobs: requests/second per
  client, burst size and a per-client in-flight cap.  They are the same for
  every client: the engine's fair dequeue weighs clients equally, and a
  request's SLO class and deadline are what the request carries.
* :class:`QuotaLedger` — thread-safe per-client enforcement of one policy.
  Both admission points share it: the cluster router (rejecting before a
  request ever crosses to a shard) and each shard's job engine (protecting a
  shard even from clients that bypass the router).

Rejections raise :class:`~repro.errors.QuotaExceededError`, the serving
layer's 429 — carrying ``retry_after`` so clients can back off precisely
instead of hammering.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import QuotaExceededError


class TokenBucket:
    """A token bucket: ``rate`` tokens/second, at most ``capacity`` banked.

    Not thread-safe on its own — :class:`QuotaLedger` serializes access.
    """

    def __init__(self, rate: float, capacity: float) -> None:
        if rate <= 0:
            raise ValueError("token rate must be positive")
        if capacity < 1:
            raise ValueError("bucket capacity must be at least 1 token")
        self.rate = float(rate)
        self.capacity = float(capacity)
        self.tokens = float(capacity)
        self.updated = time.monotonic()

    def try_acquire(self, now: Optional[float] = None) -> float:
        """Spend one token; returns 0.0 on success, else seconds to retry."""
        if now is None:
            now = time.monotonic()
        self.tokens = min(self.capacity, self.tokens + (now - self.updated) * self.rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


@dataclass
class FairnessPolicy:
    """Operator knobs for per-client admission control and scheduling.

    Attributes
    ----------
    quota_rps:
        Sustained requests/second each client may submit (token-bucket rate).
        ``None`` disables rate limiting.
    burst:
        Bucket capacity — how many requests a client may send back-to-back
        after an idle period.  Defaults to ``max(2 * quota_rps, 1)``; it
        needs a ``quota_rps`` to shape.
    max_inflight:
        Maximum requests one client may have queued or executing at once.
        ``None`` disables the cap.
    """

    quota_rps: Optional[float] = None
    burst: Optional[float] = None
    max_inflight: Optional[int] = None

    def __post_init__(self) -> None:
        if self.quota_rps is not None and self.quota_rps <= 0:
            raise ValueError("quota_rps must be positive (or None to disable)")
        if self.burst is not None and self.burst < 1:
            raise ValueError("burst must be at least 1 (or None for the default)")
        if self.burst is not None and self.quota_rps is None:
            # Without a rate the bucket capacity would be silently ignored.
            raise ValueError("burst (--quota-burst) requires quota_rps (--quota-rps)")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1 (or None to disable)")

    @property
    def limits_rate(self) -> bool:
        """Whether a sustained requests/second limit is configured."""
        return self.quota_rps is not None

    @property
    def limits_inflight(self) -> bool:
        """Whether an in-flight request cap is configured."""
        return self.max_inflight is not None

    @property
    def enabled(self) -> bool:
        """Whether any quota dimension is active."""
        return self.limits_rate or self.limits_inflight

    def bucket_capacity(self) -> float:
        """Token-bucket capacity: explicit burst, or 2x the sustained rate."""
        if self.burst is not None:
            return float(self.burst)
        return max(2.0 * float(self.quota_rps or 0.0), 1.0)


class QuotaLedger:
    """Thread-safe per-client enforcement of one :class:`FairnessPolicy`.

    ``admit`` spends a token and reserves an in-flight slot; every admitted
    request must be matched by exactly one ``release`` when it settles
    (completed, failed, or cancelled).  With a ``None`` policy (or one with
    no limits) both are no-ops, so callers never need to branch.

    Per-client buckets are bounded (``max_clients``, LRU): client ids are
    client-*chosen* strings, so unbounded per-id state would let an id-
    rotating caller exhaust the admission layer's memory.  An evicted
    (least-recently-seen) client restarts with a fresh burst on return —
    the standard trade of identity-keyed rate limiting, which by nature
    cannot bound callers that mint a new identity per request.
    """

    def __init__(
        self, policy: Optional[FairnessPolicy] = None, max_clients: int = 4096
    ) -> None:
        if max_clients < 1:
            raise ValueError("max_clients must be at least 1")
        self.policy = policy
        self.max_clients = int(max_clients)
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self._inflight: Dict[str, int] = {}
        self.throttled = 0
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        """Whether this enforcer has an active policy."""
        return self.policy is not None and self.policy.enabled

    def admit(self, client_id: str) -> None:
        """Admit one request of ``client_id`` or raise QuotaExceededError."""
        policy = self.policy
        if policy is None or not policy.enabled:
            return
        client_id = str(client_id)
        with self._lock:
            if policy.limits_inflight:
                inflight = self._inflight.get(client_id, 0)
                if inflight >= int(policy.max_inflight):
                    self.throttled += 1
                    raise QuotaExceededError(
                        f"client {client_id!r} already has {inflight} requests "
                        f"in flight (cap {policy.max_inflight}); retry when one "
                        "completes",
                        retry_after=0.05,
                    )
            if policy.limits_rate:
                bucket = self._buckets.get(client_id)
                if bucket is None:
                    bucket = self._buckets[client_id] = TokenBucket(
                        float(policy.quota_rps), policy.bucket_capacity()
                    )
                    while len(self._buckets) > self.max_clients:
                        self._buckets.popitem(last=False)
                else:
                    self._buckets.move_to_end(client_id)
                retry_after = bucket.try_acquire()
                if retry_after > 0.0:
                    self.throttled += 1
                    raise QuotaExceededError(
                        f"client {client_id!r} exceeded its rate quota of "
                        f"{policy.quota_rps:g} requests/second; retry in "
                        f"{retry_after:.3f}s",
                        retry_after=retry_after,
                    )
            if policy.limits_inflight:
                self._inflight[client_id] = self._inflight.get(client_id, 0) + 1

    def release(self, client_id: str) -> None:
        """Return the in-flight slot taken by one admitted request."""
        policy = self.policy
        if policy is None or not policy.limits_inflight:
            return
        client_id = str(client_id)
        with self._lock:
            count = self._inflight.get(client_id, 0) - 1
            if count > 0:
                self._inflight[client_id] = count
            else:
                self._inflight.pop(client_id, None)

    def inflight(self, client_id: str) -> int:
        """A client's current queued+executing request count."""
        with self._lock:
            return self._inflight.get(str(client_id), 0)

    def summary(self) -> Dict[str, object]:
        """Quota totals and per-client in-flight counts, for stats()."""
        policy = self.policy
        with self._lock:
            return {
                "enabled": self.enabled,
                "quota_rps": policy.quota_rps if policy else None,
                "max_inflight": policy.max_inflight if policy else None,
                "throttled": self.throttled,
                "clients_inflight": dict(sorted(self._inflight.items())),
            }


__all__ = ["TokenBucket", "FairnessPolicy", "QuotaLedger"]
