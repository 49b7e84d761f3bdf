"""Tests for the compiler driver (Algorithm 1) and its policy profiles."""

import numpy as np
import pytest

from repro.core import CompilerOptions, compile_program, execute_reference
from repro.core.analysis import validate
from repro.core.ir import Program
from repro.core.types import Op, ValueType
from repro.errors import CompilationError
from repro.frontend import EvaProgram, input_encrypted, output


class TestCompilerDriver:
    def test_compiled_program_validates(self, x2y3_program):
        result = compile_program(x2y3_program)
        validate(result.program, max_rescale_bits=60)

    def test_original_program_not_mutated(self, x2y3_program):
        terms_before = len(x2y3_program)
        compile_program(x2y3_program)
        assert len(x2y3_program) == terms_before

    def test_fhe_ops_rejected_in_input(self):
        program = Program("bad", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=30)
        program.set_output("out", program.make_term(Op.RESCALE, [x], rescale_value=30.0))
        with pytest.raises(CompilationError):
            compile_program(program)

    def test_unknown_policy_rejected(self):
        with pytest.raises(CompilationError):
            CompilerOptions(policy="nonsense")

    def test_unknown_input_scale_rejected(self, x2y3_program):
        with pytest.raises(CompilationError):
            compile_program(x2y3_program, input_scales={"nope": 30})

    def test_unknown_output_scale_rejected(self, x2y3_program):
        with pytest.raises(CompilationError):
            compile_program(x2y3_program, output_scales={"nope": 30})

    def test_input_scales_override(self, x2y3_program):
        result = compile_program(x2y3_program, input_scales={"x": 40, "y": 40})
        assert result.input_scales == {"x": 40.0, "y": 40.0}

    def test_pass_reports_recorded(self, x2y3_program):
        result = compile_program(x2y3_program)
        names = [r.name for r in result.pass_reports]
        assert "waterline-rescale" in names
        assert "eager-modswitch" in names
        assert "match-scale" in names
        assert "relinearize" in names

    def test_summary_contents(self, x2y3_program):
        summary = compile_program(x2y3_program).summary()
        assert summary["policy"] == "eva"
        assert summary["r"] >= 2
        assert summary["compile_seconds"] > 0

    def test_chet_policy_uses_different_passes(self, x2_plus_x_program):
        result = compile_program(x2_plus_x_program, options=CompilerOptions(policy="chet"))
        names = [r.name for r in result.pass_reports]
        assert "chet-kernel-alignment" in names
        assert "lazy-modswitch" in names
        assert "eager-modswitch" not in names

    def test_x2y3_matches_paper_chain_structure(self, x2y3_program):
        # Figure 2(d)/(e): output rescale chain of length 2 with 60-bit values,
        # final output scale 2^90, so r = 1 + 2 + ceil((90 + 30)/60) = 5.
        result = compile_program(x2y3_program, output_scales={"out": 30})
        assert result.parameters.modulus_count == 5
        assert result.parameters.coeff_modulus_bits.count(60) >= 3


class TestPolicyComparison:
    """The EVA policy should never be worse than the CHET baseline (Table 6 shape)."""

    def _program(self):
        program = EvaProgram("cmp", vec_size=64, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            w = program.constant(np.linspace(-1, 1, 64).tolist(), 15)
            y = (x * w) * (x * w) + x
            z = y * y + (x << 3)
            output("z", z, 25)
        return program

    def test_eva_modulus_not_longer_than_chet(self):
        # The paper's optimality claim is about the modulus-chain length r
        # (Section 5.3); for very shallow programs the 60-bit rescale policy
        # can use more total bits than the baseline, so only r is compared.
        program = self._program()
        eva = program.compile(options=CompilerOptions(policy="eva"))
        chet = program.compile(options=CompilerOptions(policy="chet"))
        assert eva.parameters.modulus_count <= chet.parameters.modulus_count

    def test_both_policies_produce_equivalent_results(self, noiseless_backend):
        from repro.core import Executor

        program = self._program()
        xv = np.linspace(-0.9, 0.9, 64)
        reference = execute_reference(program.graph, {"x": xv})["z"]
        for policy in ("eva", "chet"):
            compiled = program.compile(options=CompilerOptions(policy=policy))
            result = Executor(compiled, noiseless_backend).execute({"x": xv})
            np.testing.assert_allclose(result["z"], reference, rtol=1e-9, atol=1e-9)


class TestRescaleBitOptions:
    def test_smaller_max_rescale_produces_smaller_primes(self, x2y3_program):
        result = compile_program(
            x2y3_program,
            input_scales={"x": 25, "y": 25},
            options=CompilerOptions(max_rescale_bits=25),
        )
        assert all(bits <= 25 for bits in result.parameters.coeff_modulus_bits)


class TestCseAndFolding:
    def test_cse_merges_duplicate_rotations(self):
        program = EvaProgram("dup", vec_size=16, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            a = (x << 2) * 0.5
            b = (x << 2) * 0.25
            output("out", a + b, 25)
        compiled = program.compile()
        rotations = [t for t in compiled.program.terms() if t.op is Op.ROTATE_LEFT]
        assert len(rotations) == 1

    def test_constant_folding_removes_plain_subgraphs(self):
        program = Program("fold", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=25)
        c1 = program.constant([1.0] * 8, scale=15)
        c2 = program.constant([2.0] * 8, scale=15)
        summed = program.make_term(Op.ADD, [c1, c2])
        product = program.make_term(Op.MULTIPLY, [x, summed])
        program.set_output("out", product, scale=25)
        compiled = compile_program(program)
        plain_instructions = [
            t
            for t in compiled.program.terms()
            if t.is_instruction and t.value_type is not ValueType.CIPHER
        ]
        assert plain_instructions == []
