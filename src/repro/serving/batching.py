"""Slot batching: pack independent small requests into one ciphertext.

A CKKS ciphertext carries ``vec_size`` slots, but many workloads (Section 8's
statistical/ML examples) use vectors far smaller than the slot count the
security level forces.  One-shot execution wastes the spare slots by
replicating the input.  The batcher instead splits the slots into *lanes* of a
common power-of-two width, places one request per lane, executes the program
once, and demultiplexes each lane back out — k requests for one ciphertext's
worth of homomorphic work.

Packing is sound in two cases, both read off the compilation's metadata:

* *slotwise* programs — no instruction reads across slot boundaries, so any
  lane width that fits the requests (and the constants) works;
* *lane-lowered* programs — the compiler ran
  :class:`~repro.core.rewrite.LaneLoweringPass` at a fixed ``lane_width``,
  rewriting every rotation (and expanded SUM) into its masked lane-local
  form.  The lane width is then a compiler guarantee carried on
  :class:`~repro.core.compiler.CompilationResult`, not something this module
  re-derives from opcodes, and it is *fixed*: requests wider than the
  compiled lane cannot be packed.

Program constants are lane-constrained either way: a constant vector tiles
with its own period during encoding, so every constant's length must divide
the lane width for each lane to see the same constant a solo run would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..core.compiler import CompilationResult
from ..core.ir import Program, Term
from ..errors import ServingError


def pow2_ceil(value: int) -> int:
    """Smallest power of two >= value (lane and request widths are pow2)."""
    result = 1
    while result < value:
        result <<= 1
    return result


def linger_budget(
    slo_class: str,
    batch_window: float,
    deadline_remaining: Optional[float] = None,
    execute_estimate: float = 0.0,
    can_share: bool = True,
) -> float:
    """Seconds batch formation may linger for one request, given its SLO.

    The DiLaServe-style batch-vs-solo decision, made per request against its
    deadline rather than globally:

    * a request whose group cannot share an evaluation (``can_share`` False:
      pre-encrypted bundles, which the server cannot slot-pack) never lingers
      — company would not make it any cheaper.
    * ``tight`` requests are never held back to fill lanes — a batch worth
      forming for a relaxed client is worth skipping for a tight one, so the
      budget is 0 (already-queued same-group jobs still ride along for free).
    * ``relaxed`` requests always amortize: the full ``batch_window``, even
      when a deadline leaves less slack — a relaxed client asked for
      throughput, not latency.
    * ``standard`` requests linger only as long as their deadline allows:
      ``batch_window`` capped at ``deadline_remaining - execute_estimate``
      (a request whose slack just covers execution goes solo, not rejected).

    ``deadline_remaining`` is seconds until the request's deadline (None when
    it carries none); ``execute_estimate`` is the modeled solo execution time.
    """
    if slo_class == "tight" or not can_share:
        return 0.0
    if slo_class == "relaxed" or deadline_remaining is None:
        return max(float(batch_window), 0.0)
    slack = float(deadline_remaining) - float(execute_estimate)
    return min(max(float(batch_window), 0.0), max(slack, 0.0))


def _value_width(value: Any) -> int:
    return int(np.atleast_1d(np.asarray(value, dtype=np.float64)).size)


def is_slotwise(program: Program) -> bool:
    """True when every instruction operates slot-by-slot (batchable as-is)."""
    return not any(t.is_instruction and t.instruction.moves_slots for t in program.terms())


def min_lane_width(program: Program) -> int:
    """Smallest lane width the program's constants allow.

    Lane-mask constants inserted by the compiler's lowering pass are skipped:
    they always span exactly the compiled lane width and carry no program
    semantics, so they must not inflate the output period reported for the
    program's real constants.
    """
    return _min_lane(program.terms())


def _min_lane(terms: Sequence[Term]) -> int:
    width = 1
    for term in terms:
        if term.is_constant and not term.attributes.get("lane_mask"):
            width = max(width, pow2_ceil(_value_width(term.value)))
    return width


def request_width(inputs: Dict[str, Any]) -> int:
    """Logical vector width of one request (its widest input, at least 1)."""
    width = 1
    for value in inputs.values():
        width = max(width, _value_width(value))
    return pow2_ceil(width)


@dataclass(frozen=True)
class BatchInfo:
    """Batch-relevant facts of a compiled program.

    ``slotwise`` and ``min_lane`` are pure functions of the compiled graph;
    ``lane_width`` is the compiler-enforced lane width copied from the
    compilation options (None for programs compiled without lane lowering).
    Computing the graph-derived facts walks the whole term graph, so servers
    cache one ``BatchInfo`` per compilation signature instead of re-scanning
    per batch.
    """

    slotwise: bool
    min_lane: int
    vec_size: int
    lane_width: Optional[int] = None
    #: Static per-evaluation rotation and key-switch (rotate + relinearize)
    #: counts of the compiled graph — the telemetry layer multiplies these by
    #: served batches instead of re-walking the graph per request.
    rotations: int = 0
    keyswitches: int = 0

    @property
    def batchable(self) -> bool:
        """Whether this compilation can share a ciphertext across requests."""
        if self.lane_width is not None:
            return self.lane_width < self.vec_size
        return self.slotwise and self.min_lane < self.vec_size


@dataclass
class BatchPlan:
    """Placement of a group of requests into the lanes of one ciphertext."""

    vec_size: int
    lane_width: int
    input_names: List[str]
    #: Per-request output width (defaults to the request's own width).
    output_widths: List[int] = field(default_factory=list)

    @property
    def capacity(self) -> int:
        """Max requests that fit one ciphertext at this lane width."""
        return self.vec_size // self.lane_width

    @property
    def lanes(self) -> int:
        """Number of occupied lanes in this batch plan."""
        return len(self.output_widths)


class SlotBatcher:
    """Plans, packs, and unpacks slot-level request batches."""

    def inspect(self, compilation: CompilationResult) -> BatchInfo:
        """Scan the compiled program once for its batch-relevant facts."""
        program = compilation.program
        lane_width = compilation.options.lane_width
        if lane_width is not None and lane_width >= program.vec_size:
            lane_width = None  # full-width lane: lowering was the identity
        terms = program.terms()  # one walk of the graph for every fact below
        rows = [term.instruction for term in terms if term.is_instruction]
        return BatchInfo(
            slotwise=not any(row.moves_slots for row in rows),
            min_lane=_min_lane(terms),
            vec_size=program.vec_size,
            lane_width=lane_width,
            rotations=sum(row.immediate == "rotation" for row in rows),
            keyswitches=sum(row.key_switches for row in rows),
        )

    def batchable(self, compilation: CompilationResult) -> bool:
        """Whether the compiled program admits slot batching at all."""
        return self.inspect(compilation).batchable

    def plan(
        self,
        compilation: CompilationResult,
        requests: Sequence[Dict[str, Any]],
        output_widths: Optional[Sequence[Optional[int]]] = None,
        info: Optional[BatchInfo] = None,
    ) -> Optional[BatchPlan]:
        """Fit ``requests`` into one execution, or None when batching loses.

        Returns a plan only when at least two requests fit; callers fall back
        to per-request execution otherwise.  ``info`` lets a server pass the
        cached :meth:`inspect` result instead of re-scanning the graph.
        """
        if info is None:
            info = self.inspect(compilation)
        if len(requests) < 2 or not info.batchable:
            return None
        program = compilation.program
        widths = [request_width(inputs) for inputs in requests]
        if info.lane_width is not None:
            # The compiler fixed the lane width; a wider request cannot be
            # packed (its data would cross the masked lane boundary).
            lane = info.lane_width
            if any(width > lane for width in widths):
                return None
        else:
            lane = max([info.min_lane] + widths)
        if lane > program.vec_size or program.vec_size % lane:
            return None
        capacity = program.vec_size // lane
        if capacity < 2 or len(requests) > capacity:
            return None
        names = sorted({name for inputs in requests for name in inputs})
        for inputs in requests:
            if sorted(inputs) != names:
                return None  # heterogeneous requests cannot share lanes
            # Every value must tile its lane exactly; a request that cannot
            # (e.g. a size-3 vector) must fail alone on the solo path, not
            # poison the whole batch from inside pack().
            if any(lane % _value_width(value) for value in inputs.values()):
                return None
        resolved: List[int] = []
        for index, width in enumerate(widths):
            requested = None if output_widths is None else output_widths[index]
            if requested is not None and (
                not isinstance(requested, int) or requested < 1
            ):
                return None
            # The default reply covers the full output period: a constant
            # wider than the request makes the output repeat with the
            # constant's period, not the request's (min_lane <= lane always).
            resolved.append(requested if requested else max(width, info.min_lane))
        if any(w > lane for w in resolved):
            return None
        return BatchPlan(
            vec_size=program.vec_size,
            lane_width=lane,
            input_names=names,
            output_widths=resolved,
        )

    def pack(
        self, plan: BatchPlan, requests: Sequence[Dict[str, Any]]
    ) -> Dict[str, np.ndarray]:
        """Assemble the lane-packed input vectors for one execution."""
        if len(requests) != plan.lanes:
            raise ServingError(
                f"plan covers {plan.lanes} requests, got {len(requests)}"
            )
        packed: Dict[str, np.ndarray] = {}
        for name in plan.input_names:
            vector = np.empty(plan.vec_size, dtype=np.float64)
            for index, inputs in enumerate(requests):
                start = index * plan.lane_width
                vector[start : start + plan.lane_width] = self._fill_lane(
                    inputs[name], plan.lane_width
                )
            # Unused lanes repeat lane 0: neither slotwise nor lane-lowered
            # programs ever read across lanes, so the filler only has to be
            # *some* well-scaled value.
            for index in range(len(requests), plan.capacity):
                start = index * plan.lane_width
                vector[start : start + plan.lane_width] = vector[: plan.lane_width]
            packed[name] = vector
        return packed

    def unpack(
        self, plan: BatchPlan, outputs: Dict[str, np.ndarray]
    ) -> List[Dict[str, np.ndarray]]:
        """Split packed outputs back into one result dict per request."""
        results: List[Dict[str, np.ndarray]] = []
        for index, width in enumerate(plan.output_widths):
            start = index * plan.lane_width
            results.append(
                {
                    name: np.asarray(values)[start : start + width].copy()
                    for name, values in outputs.items()
                }
            )
        return results

    @staticmethod
    def _fill_lane(value: Any, lane_width: int) -> np.ndarray:
        """Replicate one request's value into its lane (solo-run semantics)."""
        array = np.atleast_1d(np.asarray(value, dtype=np.float64)).ravel()
        if array.size == lane_width:
            return array
        if array.size == 1:
            return np.full(lane_width, float(array[0]))
        if lane_width % array.size:
            raise ServingError(
                f"request value of size {array.size} does not divide "
                f"the lane width {lane_width}"
            )
        return np.tile(array, lane_width // array.size)
