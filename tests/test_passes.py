"""Unit tests for the graph transformation passes of Figure 4.

The tests reproduce the paper's worked examples: x^2*y^3 (Figure 2),
x^2 + x (Figure 3), and x^2 + x + x (Figure 5), and check the structural
properties each pass is supposed to establish.
"""

import numpy as np
import pytest

from repro.core.analysis import compute_levels, compute_scales
from repro.core.analysis.levels import compute_rescale_chains, output_chains
from repro.core.analysis.validation import compute_polynomial_counts
from repro.core.ir import Program
from repro.core.rewrite import (
    EagerModSwitchPass,
    ExpandSumPass,
    LazyModSwitchPass,
    MatchScalePass,
    RelinearizePass,
    RemoveCopyPass,
    WaterlineRescalePass,
)
from repro.core.rewrite.framework import PassContext, waterline_of
from repro.core.types import Op, ValueType


def count_ops(program: Program, op: Op) -> int:
    return sum(1 for t in program.terms() if t.op is op)


def make_context(program: Program, **kwargs) -> PassContext:
    defaults = dict(max_rescale_bits=60.0, waterline_bits=waterline_of(program))
    defaults.update(kwargs)
    return PassContext(**defaults)


class TestWaterlineRescale:
    def test_x2y3_inserts_two_rescales(self, x2y3_program):
        # Figure 2(d): with x at 2^60 and y at 2^30, only the x^2 product and
        # the final product are rescaled (by s_f = 2^60).
        context = make_context(x2y3_program)
        WaterlineRescalePass().run(x2y3_program, context)
        assert count_ops(x2y3_program, Op.RESCALE) == 2
        for term in x2y3_program.terms():
            if term.op is Op.RESCALE:
                assert term.rescale_value == 60.0

    def test_no_rescale_when_below_waterline(self):
        program = Program("p", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=20)
        program.set_output("out", program.make_term(Op.MULTIPLY, [x, x]), scale=20)
        WaterlineRescalePass().run(program, make_context(program))
        assert count_ops(program, Op.RESCALE) == 0

    def test_repeated_rescale_for_very_large_scales(self):
        program = Program("p", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=50)
        y = program.input("y", ValueType.CIPHER, scale=100)
        program.set_output("out", program.make_term(Op.MULTIPLY, [x, y]), scale=30)
        context = make_context(program, waterline_bits=20.0)
        WaterlineRescalePass().run(program, context)
        # 150 bits of scale can absorb two 60-bit rescales before hitting 20.
        assert count_ops(program, Op.RESCALE) == 2

    def test_scales_stay_at_or_above_waterline(self, x2y3_program):
        context = make_context(x2y3_program)
        WaterlineRescalePass().run(x2y3_program, context)
        scales = compute_scales(x2y3_program)
        for term in x2y3_program.terms():
            if term.value_type is ValueType.CIPHER and term.is_instruction:
                assert scales[term.id] >= 30.0 - 1e-9

    def test_output_chain_not_longer_than_multiplicative_depth(self, x2y3_program):
        # The paper's first key insight: |c_o| <= multiplicative depth.
        depth = x2y3_program.multiplicative_depth()
        WaterlineRescalePass().run(x2y3_program, make_context(x2y3_program))
        chains = output_chains(x2y3_program, strict=False)
        assert len(chains["out"]) <= depth


class TestModSwitchInsertion:
    def _prepare(self, program: Program) -> PassContext:
        context = make_context(program)
        WaterlineRescalePass().run(program, context)
        return context

    def test_eager_makes_chains_conform(self, x2y3_program):
        context = self._prepare(x2y3_program)
        EagerModSwitchPass().run(x2y3_program, context)
        # strict chain computation raises if Constraint 1 is not satisfiable.
        compute_rescale_chains(x2y3_program, strict=True)

    def test_lazy_makes_chains_conform(self, x2y3_program):
        context = self._prepare(x2y3_program)
        LazyModSwitchPass().run(x2y3_program, context)
        compute_rescale_chains(x2y3_program, strict=True)

    def test_binary_operand_levels_match(self, x2y3_program):
        context = self._prepare(x2y3_program)
        EagerModSwitchPass().run(x2y3_program, context)
        levels = compute_levels(x2y3_program)
        for term in x2y3_program.terms():
            cipher_args = [a for a in term.args if a.value_type is ValueType.CIPHER]
            if len(cipher_args) == 2:
                assert levels[cipher_args[0].id] == levels[cipher_args[1].id]

    def test_eager_uses_no_more_switches_than_lazy(self):
        # Figure 5: x^2 + x + x — eager shares a single MOD_SWITCH while lazy
        # inserts one per consuming edge.
        def build():
            program = Program("x2xx", vec_size=8)
            x = program.input("x", ValueType.CIPHER, scale=40)
            x2 = program.make_term(Op.MULTIPLY, [x, x])
            add1 = program.make_term(Op.ADD, [x2, x])
            add2 = program.make_term(Op.ADD, [add1, x])
            program.set_output("out", add2, scale=30)
            return program

        eager = build()
        context = make_context(eager, waterline_bits=20.0, rescale_bits=40.0, max_rescale_bits=40.0)
        WaterlineRescalePass().run(eager, context)
        EagerModSwitchPass().run(eager, context)

        lazy = build()
        context = make_context(lazy, waterline_bits=20.0, rescale_bits=40.0, max_rescale_bits=40.0)
        WaterlineRescalePass().run(lazy, context)
        LazyModSwitchPass().run(lazy, context)

        assert count_ops(eager, Op.MOD_SWITCH) <= count_ops(lazy, Op.MOD_SWITCH)
        assert count_ops(eager, Op.MOD_SWITCH) >= 1


class TestMatchScale:
    def test_x2_plus_x_gets_scale_boost(self, x2_plus_x_program):
        # Figure 3(c): the x operand of the ADD is multiplied by a constant 1
        # at scale 2^30 instead of introducing a rescale/modswitch.
        context = make_context(x2_plus_x_program)
        MatchScalePass().run(x2_plus_x_program, context)
        assert count_ops(x2_plus_x_program, Op.MULTIPLY) == 2
        scales = compute_scales(x2_plus_x_program)
        for term in x2_plus_x_program.terms():
            cipher_args = [a for a in term.args if a.value_type is ValueType.CIPHER]
            if term.op in (Op.ADD, Op.SUB) and len(cipher_args) == 2:
                assert scales[cipher_args[0].id] == pytest.approx(scales[cipher_args[1].id])

    def test_no_rewrite_when_scales_match(self):
        program = Program("p", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=30)
        y = program.input("y", ValueType.CIPHER, scale=30)
        program.set_output("out", program.make_term(Op.ADD, [x, y]), scale=30)
        rewrites = MatchScalePass().run(program, make_context(program))
        assert rewrites == 0

    def test_boost_constant_scale_equals_difference(self, x2_plus_x_program):
        MatchScalePass().run(x2_plus_x_program, make_context(x2_plus_x_program))
        constants = [t for t in x2_plus_x_program.terms() if t.is_constant]
        assert any(c.scale == pytest.approx(30.0) for c in constants)


class TestRelinearize:
    def test_inserted_after_cipher_cipher_multiply(self, x2y3_program):
        RelinearizePass().run(x2y3_program, make_context(x2y3_program))
        assert count_ops(x2y3_program, Op.RELINEARIZE) == 4

    def test_not_inserted_for_cipher_plain_multiply(self):
        program = Program("p", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=30)
        c = program.constant(2.0, scale=10)
        program.set_output("out", program.make_term(Op.MULTIPLY, [x, c]), scale=30)
        RelinearizePass().run(program, make_context(program))
        assert count_ops(program, Op.RELINEARIZE) == 0

    def test_polynomial_counts_after_relinearization(self, x2y3_program):
        RelinearizePass().run(x2y3_program, make_context(x2y3_program))
        counts = compute_polynomial_counts(x2y3_program)
        for term in x2y3_program.terms():
            if term.op is Op.MULTIPLY:
                for arg in term.args:
                    if arg.value_type is ValueType.CIPHER:
                        assert counts[arg.id] == 2

    def test_idempotent(self, x2y3_program):
        context = make_context(x2y3_program)
        RelinearizePass().run(x2y3_program, context)
        rewrites = RelinearizePass().run(x2y3_program, context)
        assert rewrites == 0


class TestLoweringPasses:
    def test_expand_sum(self):
        program = Program("p", vec_size=16)
        x = program.input("x", ValueType.CIPHER, scale=30)
        total = program.make_term(Op.SUM, [x])
        program.set_output("out", total, scale=30)
        ExpandSumPass().run(program, make_context(program))
        assert count_ops(program, Op.SUM) == 0
        rotations = [t.rotation for t in program.terms() if t.op is Op.ROTATE_LEFT]
        assert sorted(rotations) == [1, 2, 4, 8]

    @pytest.mark.parametrize("period", [1, 2, 8])
    @pytest.mark.parametrize("build", ["sum", "rotate"])
    def test_folding_a_periodic_constant_matches_the_reference(self, build, period):
        """A constant shorter than vec_size is one period of the vector it
        denotes: SUM folds over all vec_size slots (it used to fold over one
        period: 3x for 12x), and a rotation by a step the period does not
        divide folds to the rotated periodic vector."""
        from repro.core import Executor
        from repro.core.compiler import CompilationResult
        from repro.core.executor import execute_reference
        from repro.backend.mock_backend import MockBackend

        program = Program("p", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=30)
        constant = program.constant(np.arange(1.0, period + 1.0), scale=30)
        if build == "sum":
            folded = program.make_term(Op.SUM, [constant])
        else:
            folded = program.make_term(Op.ROTATE_LEFT, [constant], rotation=3)
        program.set_output("out", program.make_term(Op.MULTIPLY, [x, folded]), scale=30)
        inputs = {"x": np.linspace(-1.0, 1.0, 8)}
        expected = execute_reference(program, inputs)["out"]
        if build == "sum":
            np.testing.assert_allclose(expected, inputs["x"] * (8 // period) * sum(range(period + 1)))

        compiled = CompilationResult.compile(program)
        assert count_ops(compiled.program, Op.SUM) == 0
        assert not any(t.op in (Op.ROTATE_LEFT, Op.ROTATE_RIGHT) for t in compiled.program.terms())
        result = Executor(compiled, backend=MockBackend(error_model="none")).execute(inputs)
        np.testing.assert_allclose(result["out"], expected, atol=1e-9)

    def test_remove_copy_and_null_rotation(self):
        program = Program("p", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=30)
        copy = program.make_term(Op.COPY, [x])
        rot0 = program.make_term(Op.ROTATE_LEFT, [copy], rotation=8)
        out = program.make_term(Op.MULTIPLY, [rot0, rot0])
        program.set_output("out", out, scale=30)
        RemoveCopyPass().run(program, make_context(program))
        ops = [t.op for t in program.terms()]
        assert Op.COPY not in ops
        assert Op.ROTATE_LEFT not in ops
