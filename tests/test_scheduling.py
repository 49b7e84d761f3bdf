"""Tests for the cost model and the parallel-schedule simulator (Figure 7 machinery)."""

import pytest

from repro.backend.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.core import CompilerOptions, simulate_schedule
from repro.core.instructions import INSTRUCTIONS
from repro.core.scheduling import term_costs
from repro.core.types import Op
from repro.frontend import EvaProgram, input_encrypted, output


def build_wide_program(width: int = 16) -> EvaProgram:
    """A embarrassingly parallel program: many independent squarings."""
    program = EvaProgram("wide", vec_size=32, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        acc = None
        for i in range(width):
            with program.kernel(f"k{i}"):
                branch = (x << i) * (x << i)
            acc = branch if acc is None else acc + branch
        output("out", acc, 25)
    return program


class TestCostModel:
    def test_costs_increase_with_degree_and_level(self):
        model = CostModel()
        assert model.op_seconds("multiply", 16384, 4) > model.op_seconds("multiply", 8192, 4)
        assert model.op_seconds("multiply", 8192, 8) > model.op_seconds("multiply", 8192, 2)

    def test_keyswitching_ops_cost_more_than_additions(self):
        model = CostModel()
        assert model.op_seconds("rotate", 8192, 4) > model.op_seconds("add", 8192, 4)
        assert model.op_seconds("relinearize", 8192, 4) > model.op_seconds("multiply_plain", 8192, 4)

    def test_term_kind_mapping(self):
        assert INSTRUCTIONS[Op.MULTIPLY].cost_kind(2) == "multiply"
        assert INSTRUCTIONS[Op.MULTIPLY].cost_kind(1) == "multiply_plain"
        assert INSTRUCTIONS[Op.ROTATE_LEFT].cost_kind(1) == "rotate"
        assert INSTRUCTIONS[Op.ADD].cost_kind(2) == "add"
        assert INSTRUCTIONS[Op.ADD].cost_kind(1) == "add"
        assert INSTRUCTIONS[Op.RESCALE].cost_kind(1) == "rescale"
        for kind in {row.cost for row in INSTRUCTIONS.values()}:
            assert kind in DEFAULT_COST_MODEL.weights

    def test_term_costs_cover_all_cipher_instructions(self):
        program = build_wide_program(4)
        compiled = program.compile()
        costs = term_costs(compiled)
        cipher_instructions = [
            t
            for t in compiled.program.terms()
            if t.is_instruction and t.value_type.name == "CIPHER"
        ]
        assert set(costs) == {t.id for t in cipher_instructions}
        assert all(c > 0 for c in costs.values())


class TestScheduleSimulation:
    def test_single_thread_equals_total_work(self):
        compiled = build_wide_program(8).compile()
        schedule = simulate_schedule(compiled, threads=1)
        assert schedule.makespan_seconds == pytest.approx(schedule.total_work_seconds, rel=1e-9)

    def test_more_threads_never_slower(self):
        compiled = build_wide_program(8).compile()
        previous = float("inf")
        for threads in (1, 2, 4, 8):
            makespan = simulate_schedule(compiled, threads=threads).makespan_seconds
            assert makespan <= previous + 1e-12
            previous = makespan

    def test_makespan_bounded_by_critical_path(self):
        compiled = build_wide_program(8).compile()
        schedule = simulate_schedule(compiled, threads=64)
        assert schedule.makespan_seconds >= schedule.critical_path_seconds - 1e-12

    def test_dag_schedule_scales_better_than_kernel_schedule(self):
        # EVA's whole-program DAG scheduling exploits parallelism across
        # kernels; the bulk-synchronous per-kernel schedule cannot (Figure 7).
        compiled = build_wide_program(16).compile()
        dag = simulate_schedule(compiled, threads=16, discipline="dag")
        kernel = simulate_schedule(compiled, threads=16, discipline="kernel")
        assert dag.makespan_seconds <= kernel.makespan_seconds + 1e-12

    def test_kernel_schedule_equal_work(self):
        compiled = build_wide_program(4).compile()
        dag = simulate_schedule(compiled, threads=1, discipline="dag")
        kernel = simulate_schedule(compiled, threads=1, discipline="kernel")
        assert dag.total_work_seconds == pytest.approx(kernel.total_work_seconds)

    def test_parallel_efficiency_in_unit_range(self):
        compiled = build_wide_program(8).compile()
        for threads in (1, 4, 16):
            schedule = simulate_schedule(compiled, threads=threads)
            assert 0.0 < schedule.parallel_efficiency <= 1.0 + 1e-9

    def test_unknown_discipline_rejected(self):
        compiled = build_wide_program(2).compile()
        with pytest.raises(ValueError):
            simulate_schedule(compiled, threads=2, discipline="magic")

    def test_eva_latency_not_worse_than_chet(self):
        # Table 5 shape: with the same cost model, the EVA-compiled program on
        # a DAG schedule should not be slower than the CHET baseline on a
        # bulk-synchronous schedule.
        program = build_wide_program(8)
        eva = program.compile(options=CompilerOptions(policy="eva"))
        chet = program.compile(options=CompilerOptions(policy="chet"))
        eva_latency = simulate_schedule(eva, threads=8, discipline="dag").makespan_seconds
        chet_latency = simulate_schedule(chet, threads=8, discipline="kernel").makespan_seconds
        assert eva_latency <= chet_latency
