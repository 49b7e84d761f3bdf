"""Shard membership as data: one table, one ring derived from it, no IO.

Everything :class:`~repro.serving.cluster.EvaCluster` *decides* about its
shards lives here, and nothing here reads a socket, a process, a thread or a
clock: observations and the time are arguments.  The cluster is the IO shell —
it gathers an observation (a probe answered, a process is gone, an operator
asked for a drain), feeds one event to :meth:`Membership.apply` under its
state lock, and performs what follows (respawn, reconnect, close).

* :data:`TRANSITIONS` is the shard lifecycle, ``(state, event) -> state``; a
  pair outside it is refused with the typed error the wire op returns.
  ``docs/operations.md`` carries the same table (``tools/check_docs.py``
  holds the two together).
* :class:`Membership` stores ``state[index]`` and ``generation[index]`` and
  keeps the :class:`ConsistentHashRing` equal to the live set — a derived
  fact, so "a drained shard gets no new work" holds by construction.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ServingError


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


# -- the shard lifecycle -----------------------------------------------------------
#: Shard states.  ``live``: in the ring, serving.  ``drained``: process up,
#: parked out of the ring by an operator.  ``dead``: process
#: gone or unresponsive; its clients reroute.  A shard nobody has joined yet has
#: no state (``None``).
STATES = (LIVE, DRAINED, DEAD) = ("live", "drained", "dead")

#: Events.  ``join``: a shard process came up at start.  ``probe_ok`` / ``probe_failed``: the answer
#: of a health ping to a shard whose process is up.  ``process_died``: the process is gone.
#: ``transport_failure``: a request lost its connection to a shard that turned out to be alive (the
#: retry reconnects).  ``drain`` / ``rejoin``: the admin ops; ``rejoin_respawned`` is a rejoin that
#: had to start a new process, and the only event that bumps the shard's generation.
JOIN = "join"
PROBE_OK = "probe_ok"
PROBE_FAILED = "probe_failed"
PROCESS_DIED = "process_died"
TRANSPORT_FAILURE = "transport_failure"
DRAIN = "drain"
REJOIN = "rejoin"
REJOIN_RESPAWNED = "rejoin_respawned"
EVENTS = (
    JOIN,
    PROBE_OK,
    PROBE_FAILED,
    PROCESS_DIED,
    TRANSPORT_FAILURE,
    DRAIN,
    REJOIN,
    REJOIN_RESPAWNED,
)

#: ``(state, event) -> state``; a missing pair is refused (see ``apply``).
TRANSITIONS: Dict[Tuple[Optional[str], str], str] = {
    **{(state, JOIN): LIVE for state in (None, *STATES)},
    **{(state, PROBE_OK): state for state in STATES},
    (LIVE, PROBE_FAILED): DEAD,
    # A parked shard that misses a ping stays parked while its process is up.
    (DRAINED, PROBE_FAILED): DRAINED,
    (DEAD, PROBE_FAILED): DEAD,
    # ... but one whose process died is dead, not "drained": monitoring that
    # reads stats() must find it in the dead list or no alert ever fires.
    **{(state, PROCESS_DIED): DEAD for state in STATES},
    **{(state, TRANSPORT_FAILURE): state for state in STATES},
    (LIVE, DRAIN): DRAINED,  # refused for the last live shard
    (DRAINED, DRAIN): DRAINED,
    **{(state, REJOIN): LIVE for state in STATES},
    **{(state, REJOIN_RESPAWNED): LIVE for state in STATES},
}


class Membership:
    """``state`` and ``generation`` per shard index, and the ring they imply.

    Not thread-safe: the IO shell applies events under its own lock.
    """

    def __init__(self, replicas: int = 64) -> None:
        self.ring = ConsistentHashRing(replicas=replicas)
        self.state: Dict[int, str] = {}
        #: Bumped whenever a shard index is respawned on a new port, so
        #: connections cached against the old process are discarded, and
        #: observations of it (a probe that was in flight) are ignored.
        self.generation: Dict[int, int] = {}

    def apply(
        self, index: int, event: str, generation: Optional[int] = None
    ) -> Optional[str]:
        """Apply one event to one shard; returns the shard's state afterwards.

        ``generation`` says which incarnation of the shard the event was
        observed on: an observation of a predecessor process is stale and
        changes nothing (otherwise a slow probe of a corpse would eject the
        freshly rejoined shard, with no automatic path back into the ring).
        A ``(state, event)`` pair outside :data:`TRANSITIONS`, or a drain of
        the last live shard, raises :class:`~repro.errors.ServingError` and
        leaves the table untouched.
        """
        current = self.state.get(index)
        if generation is not None and generation != self.generation.get(index, 0):
            return current
        target = TRANSITIONS.get((current, event))
        if target is None:
            if current is None:
                raise ServingError(f"no shard {index}")
            raise ServingError(f"shard {index} is not in the ring (already {current}?)")
        if event == DRAIN and current == LIVE and len(self.ring) == 1:
            # Draining the last live shard is a full outage, not
            # maintenance; demand an explicit kill instead.
            raise ServingError(
                f"refusing to drain shard {index}: it is the last "
                "shard in the ring (rejoin another shard first)"
            )
        self.state[index] = target
        if event == REJOIN_RESPAWNED:
            self.generation[index] = self.generation.get(index, 0) + 1
        if target == LIVE:
            self.ring.add(index)
        else:
            self.ring.remove(index)
        return target

    def indices(self, *states: str) -> List[int]:
        """Shard indices currently in any of ``states``, sorted."""
        return sorted(index for index, state in self.state.items() if state in states)

    def route(self, key: Any) -> int:
        """The live shard ``key`` consistent-hashes to."""
        try:
            return self.ring.route(str(key))
        except LookupError as exc:
            raise ServingError("no live shards in the cluster") from exc
