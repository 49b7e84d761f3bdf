"""Parallel-execution simulation for latency and strong-scaling studies.

The paper evaluates latency on a 56-core machine where EVA's executor
schedules the whole instruction DAG asynchronously while CHET parallelizes
only inside each tensor kernel with a bulk-synchronous (OpenMP) schedule.
This module reproduces that comparison analytically: it assigns every
instruction a latency from the :class:`~repro.backend.cost_model.CostModel`
(a function of the polynomial degree and the operand's remaining modulus
length) and list-schedules the DAG onto ``p`` workers.

Two scheduling disciplines are provided:

* ``"dag"`` — EVA's discipline: any ready instruction may run on any free
  worker.
* ``"kernel"`` — CHET's discipline: instructions are grouped by the
  ``kernel`` attribute their frontend attached; groups execute one after
  another with a barrier in between, and only instructions of the current
  group may run concurrently.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List

from ..backend.cost_model import CostModel, DEFAULT_COST_MODEL
from .analysis.levels import compute_levels
from .compiler import CompilationResult
from .ir import Program, Term
from .types import ValueType


@dataclass
class ScheduleResult:
    """Outcome of a simulated schedule."""

    makespan_seconds: float
    total_work_seconds: float
    critical_path_seconds: float
    threads: int
    discipline: str

    @property
    def parallel_efficiency(self) -> float:
        """Work / (makespan * threads); 1.0 means perfect scaling."""
        if self.makespan_seconds <= 0:
            return 1.0
        return self.total_work_seconds / (self.makespan_seconds * self.threads)


def term_costs(
    compilation: CompilationResult, cost_model: CostModel = DEFAULT_COST_MODEL
) -> Dict[int, float]:
    """Latency of every ciphertext instruction in the compiled program."""
    program = compilation.program
    levels = compute_levels(program)
    total_primes = len(compilation.parameters.data_bits)
    poly_degree = compilation.parameters.poly_modulus_degree
    costs: Dict[int, float] = {}
    for term in program.terms():
        if not term.is_instruction or term.value_type is not ValueType.CIPHER:
            continue
        cipher_operands = sum(
            1 for a in term.args if a.value_type is ValueType.CIPHER
        )
        kind = term.instruction.cost_kind(cipher_operands)
        operand_level = max(
            (levels[a.id] for a in term.args if a.value_type is ValueType.CIPHER),
            default=levels[term.id],
        )
        remaining = max(total_primes - operand_level, 1)
        costs[term.id] = cost_model.op_seconds(kind, poly_degree, remaining)
    return costs


def _kernel_groups(program: Program) -> List[List[Term]]:
    """Group instructions by their kernel label, in first-appearance order."""
    groups: Dict[str, List[Term]] = {}
    order: List[str] = []
    counter = 0
    for term in program.terms():
        if not term.is_instruction:
            continue
        label = term.kernel
        if label is None:
            label = f"__anon_{counter}"
            counter += 1
        if label not in groups:
            groups[label] = []
            order.append(label)
        groups[label].append(term)
    return [groups[label] for label in order]


def _list_schedule(
    terms: List[Term],
    costs: Dict[int, float],
    threads: int,
    ready_floor: Dict[int, float],
    start_floor: float = 0.0,
) -> Dict[int, float]:
    """Greedy list scheduling of ``terms`` onto ``threads`` workers.

    ``ready_floor`` holds the finish times of terms scheduled in earlier
    groups (and is updated with the finish times of this group).  Returns the
    finish time of every scheduled term.
    """
    indegree: Dict[int, int] = {}
    consumers: Dict[int, List[Term]] = {}
    term_ids = {t.id for t in terms}
    for term in terms:
        deps = [a for a in term.args if a.id in term_ids]
        indegree[term.id] = len(deps)
        for dep in deps:
            consumers.setdefault(dep.id, []).append(term)

    def ready_time(term: Term) -> float:
        times = [ready_floor.get(a.id, 0.0) for a in term.args]
        return max(times) if times else 0.0

    # Priority queue of (ready_time, sequence, term) for ready instructions.
    heap: List = []
    seq = 0
    for term in terms:
        if indegree[term.id] == 0:
            heapq.heappush(heap, (ready_time(term), seq, term))
            seq += 1

    workers = [0.0] * max(threads, 1)
    finish: Dict[int, float] = {}
    while heap:
        ready_at, _, term = heapq.heappop(heap)
        worker = min(range(len(workers)), key=lambda i: workers[i])
        start = max(workers[worker], ready_at, start_floor)
        end = start + costs.get(term.id, 0.0)
        workers[worker] = end
        finish[term.id] = end
        ready_floor[term.id] = end
        for consumer in consumers.get(term.id, ()):  # newly ready instructions
            indegree[consumer.id] -= 1
            if indegree[consumer.id] == 0:
                heapq.heappush(heap, (ready_time(consumer), seq, consumer))
                seq += 1
    return finish


def simulate_schedule(
    compilation: CompilationResult,
    threads: int = 1,
    discipline: str = "dag",
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> ScheduleResult:
    """Simulate executing the compiled program on ``threads`` workers."""
    if discipline not in ("dag", "kernel"):
        raise ValueError(f"unknown scheduling discipline {discipline!r}")
    program = compilation.program
    costs = term_costs(compilation, cost_model)
    instructions = [
        t
        for t in program.terms()
        if t.is_instruction and t.value_type is ValueType.CIPHER
    ]
    total_work = sum(costs.get(t.id, 0.0) for t in instructions)

    # Critical path (infinite workers).
    finish_inf: Dict[int, float] = {}
    for term in program.terms():
        if term.id not in costs:
            finish_inf[term.id] = max(
                (finish_inf.get(a.id, 0.0) for a in term.args), default=0.0
            )
            continue
        start = max((finish_inf.get(a.id, 0.0) for a in term.args), default=0.0)
        finish_inf[term.id] = start + costs[term.id]
    critical_path = max(finish_inf.values(), default=0.0)

    ready_floor: Dict[int, float] = {}
    if discipline == "dag":
        finish = _list_schedule(instructions, costs, threads, ready_floor)
        makespan = max(finish.values(), default=0.0)
    else:
        makespan = 0.0
        barrier = 0.0
        for group in _kernel_groups(program):
            group = [t for t in group if t.value_type is ValueType.CIPHER]
            if not group:
                continue
            floor = {tid: barrier for tid in ready_floor}
            finish = _list_schedule(group, costs, threads, floor, start_floor=barrier)
            group_end = max(finish.values(), default=barrier)
            for tid, value in finish.items():
                ready_floor[tid] = value
            barrier = max(barrier, group_end)
            for tid in ready_floor:
                ready_floor[tid] = max(ready_floor[tid], 0.0)
            makespan = barrier
    return ScheduleResult(
        makespan_seconds=makespan,
        total_work_seconds=total_work,
        critical_path_seconds=critical_path,
        threads=threads,
        discipline=discipline,
    )
