"""The instruction table (``repro.core.instructions.INSTRUCTIONS``) and what reads it.

* one row is enough: a throwaway opcode added as one row goes through the
  structure check, the reference, constant folding, the scale and level
  analyses, validation, rotation-key selection, the cost model, both program
  formats and the mock backend with nothing else patched;
* constant folding agrees with the reference on every row, for constants of
  every period (a SUM once folded over one period: 3·x for 12·x), and takes
  the scale the scale analysis gives the unfolded term;
* the compiler makes the pinned programs byte for byte
  (``tests/data/compiled_corpus.json``, captured with
  ``tests/compiled_corpus.py``: first at the commit before the table, then
  again once RESCALE and RELINEARIZE were summed before);
* the per-opcode chains are gone from the source.
"""

import ast
import itertools
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from compiled_corpus import compiled_corpus

from repro.backend import MockBackend
from repro.backend.cost_model import DEFAULT_COST_MODEL
from repro.core import CompilerOptions, EvaluationEngine, Program, execute_reference
from repro.core.analysis import compute_levels, compute_scales, select_rotation_steps, validate
from repro.core.compiler import CompilationResult, program_signature
from repro.core.instructions import INSTRUCTIONS, Instruction
from repro.core.rewrite import ConstantFoldingPass
from repro.core.rewrite.framework import PassContext
from repro.core.serialization import proto
from repro.core.types import Op, ValueType

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = json.loads((REPO_ROOT / "tests" / "data" / "compiled_corpus.json").read_text())


class TestSameProgramsSameBytes:
    def test_the_compiled_corpus_is_that_of_the_parent_commit(self):
        corpus = compiled_corpus()
        assert list(corpus) == list(CORPUS)
        for name, pinned in CORPUS.items():
            assert corpus[name] == pinned, name


@pytest.fixture
def rotate_negate(monkeypatch):
    """``Op.NORMALIZE_SCALE`` (which has no row) given one: rotate left, negate."""

    def evaluate(context, term, operands):
        rotated = context.rotate(operands[0], term.rotation)
        try:
            return context.negate(rotated)
        finally:
            context.release(rotated)

    row = Instruction(
        1,
        "both",
        lambda term, args, vec_size: -np.roll(np.atleast_1d(args[0]), -term.rotation),
        evaluate,
        immediate="rotation",
        moves_slots=True,
        key_switches=True,
        cost="rotate",
    )
    monkeypatch.setitem(INSTRUCTIONS, Op.NORMALIZE_SCALE, row)
    return Op.NORMALIZE_SCALE


class TestOneRowIsEnough:
    def test_through_every_layer(self, rotate_negate):
        program = Program("rotneg", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=25)
        weights = program.constant(np.array([1.0, 2.0, 3.0, 4.0]), scale=20)
        rotated = program.make_term(rotate_negate, [x], rotation=3)
        folds = program.make_term(rotate_negate, [weights], rotation=3)
        program.set_output("out", program.make_term(Op.MULTIPLY, [rotated, folds]), scale=25)
        program.check_structure(frontend_only=True)
        inputs = {"x": np.linspace(-1.0, 1.0, 8)}
        expected = -np.roll(inputs["x"], -3) * -np.roll(np.tile([1.0, 2.0, 3.0, 4.0], 2), -3)
        np.testing.assert_allclose(execute_reference(program, inputs)["out"], expected)
        assert compute_scales(program)[rotated.id] == 25.0
        assert compute_levels(program)[rotated.id] == 0

        compiled = CompilationResult.compile(program)  # folds, validates, selects keys
        validate(compiled.program)
        kept = [t for t in compiled.program.terms() if t.op is rotate_negate]
        assert [t.args[0].is_input for t in kept] == [True]  # the constant one folded
        assert select_rotation_steps(compiled.program) == compiled.rotation_steps == [3]
        model = DEFAULT_COST_MODEL
        assert model.program_seconds(compiled.program, 8192, 3) == pytest.approx(
            model.op_seconds("rotate", 8192, 3) + model.op_seconds("multiply_plain", 8192, 3)
        )
        for restored in (
            assert_round_trips(compiled.program),
            CompilationResult.from_record(compiled.to_record()).program,
        ):
            assert [t.rotation for t in restored.terms() if t.op is rotate_negate] == [3]

        backend = MockBackend(error_model="none")
        engine = EvaluationEngine(compiled, backend)
        context = backend.create_context(compiled.parameters)
        context.generate_keys()
        ciphers, plain = engine.encrypt_inputs(context, inputs)
        outputs = engine.evaluate(context, ciphers, plain, retire_inputs=True)
        assert context.live_ciphertexts == len(outputs)
        np.testing.assert_allclose(engine.decrypt_outputs(context, outputs)["out"], expected)


VEC_SIZE = 8
PERIODS = (1, 2, 4, VEC_SIZE)
#: Rotation steps: negative, larger than every period, not dividing it.
IMMEDIATE_VALUES = {"rotation": (-3, 5, 11, 3), "rescale_value": (10.0,)}


def _fields(term):
    """Everything a term carries: opcode, type and every attribute set."""
    attributes = {k: v for k, v in term.attributes.items() if v is not None}
    value = attributes.pop("value", None)
    if value is not None:
        attributes["value"] = (np.ndim(value), np.asarray(value, dtype=np.float64).tolist())
    return term.op, term.value_type, attributes


def assert_round_trips(program: Program) -> Program:
    """``program`` comes back from its proto bytes field for field, and with
    the same signature; returns what came back."""
    restored = proto.deserialize(proto.serialize(program), name=program.name)
    assert restored.vec_size == program.vec_size
    assert [_fields(t) for t in restored.terms()] == [_fields(t) for t in program.terms()]
    assert {name: restored.terms().index(t) for name, t in restored.outputs.items()} == {
        name: program.terms().index(t) for name, t in program.outputs.items()
    }
    assert {name: restored.output_scales[name] for name in restored.outputs} == {
        name: program.output_scales.get(name, 0.0) for name in program.outputs
    }
    assert program_signature(restored) == program_signature(program)
    return restored


def instruction_rows():
    """One case per row of the instruction table and value of its immediate."""
    for op, row in sorted(INSTRUCTIONS.items()):
        for value in IMMEDIATE_VALUES[row.immediate] if row.immediate else (None,):
            yield pytest.param(op, value, id=f"{op.name}-{value}" if row.immediate else op.name)


class TestEveryFieldSurvives:
    """Generated from the instruction table and the attributes a root carries:
    the proto writer and reader are each message's one pair, so a field one of
    them forgets (``Instruction.kernel`` once) fails here, not in a compile."""

    @pytest.mark.parametrize("op, immediate", instruction_rows())
    def test_instruction(self, op, immediate):
        row = INSTRUCTIONS[op]
        program = Program("row", vec_size=8)
        args = [program.input(f"x{i}", ValueType.CIPHER, scale=30 + i) for i in range(row.arity)]
        attributes = {"kernel": "layer1"}
        if row.immediate:
            attributes[row.immediate] = immediate
        program.set_output("out", program.make_term(op, args, **attributes), scale=30)
        (term,) = [t for t in assert_round_trips(program).terms() if t.is_instruction]
        assert term.kernel == "layer1"
        if row.immediate:
            assert getattr(term, row.immediate) == immediate

    @pytest.mark.parametrize("value_type", [ValueType.CIPHER, ValueType.VECTOR, ValueType.SCALAR])
    def test_input(self, value_type):
        program = Program("inputs", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=30)
        given = program.input("given", value_type, scale=17.5)
        program.set_output("out", program.make_term(Op.MULTIPLY, [x, given]), scale=40)
        restored = assert_round_trips(program)
        assert restored.inputs["given"].value_type is value_type
        assert restored.inputs["given"].scale == 17.5

    @pytest.mark.parametrize(
        "value, lane_mask",
        [(0.75, False), (np.array([2.0]), False), (np.linspace(0, 1, 8), False),
         (np.array([1.0, 0.0] * 4), True)],
        ids=["scalar", "one-element-vector", "vector", "lane-mask"],
    )  # fmt: skip
    def test_constant(self, value, lane_mask):
        program = Program("constants", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=30)
        constant = program.constant(value, scale=12.5)
        if lane_mask:
            constant.attributes["lane_mask"] = True
        program.set_output("out", program.make_term(Op.MULTIPLY, [x, constant]), scale=30)
        (restored,) = [t for t in assert_round_trips(program).terms() if t.is_constant]
        assert restored.scale == 12.5 and np.ndim(restored.value) == np.ndim(value)
        assert bool(restored.attributes.get("lane_mask")) is lane_mask


def folding_cases():
    for op, row in sorted(INSTRUCTIONS.items()):
        values = IMMEDIATE_VALUES.get(row.immediate, ())
        immediates = [{row.immediate: value} for value in values] or [{}]
        for periods in itertools.product(PERIODS, repeat=row.arity):
            for attributes in immediates:
                label = "-".join([op.name, *map(str, periods), *map(str, attributes.values())])
                yield pytest.param(op, periods, attributes, id=label)


class TestFoldingIsTheReference:
    @pytest.mark.parametrize("op, periods, attributes", folding_cases())
    def test_a_folded_periodic_constant_is_the_reference(self, op, periods, attributes):
        program = Program("fold", vec_size=VEC_SIZE)
        x = program.input("x", ValueType.CIPHER, scale=30)
        constants = [
            program.constant(np.linspace(-1.0, 2.0, period) + index, scale=30.0 + 5 * index)
            for index, period in enumerate(periods)
        ]
        term = program.make_term(op, constants, **attributes)
        program.set_output("out", program.make_term(Op.MULTIPLY, [x, term]), scale=30)
        expected = execute_reference(program, {"x": np.ones(VEC_SIZE)})["out"]
        scale = compute_scales(program)[term.id]

        assert ConstantFoldingPass().run(program, PassContext()) == 1
        folded = program.outputs["out"].args[1]
        assert folded.is_constant
        np.testing.assert_allclose(np.resize(np.atleast_1d(folded.value), VEC_SIZE), expected)
        assert folded.scale == scale


class TestOldPathsAreGone:
    NO_OPCODE_NAMED = (
        "core/executor.py",
        "core/rewrite/folding.py",
        "backend/cost_model.py",
        "core/analysis/scales.py",
    )

    @staticmethod
    def tree(name):
        return ast.parse((REPO_ROOT / "src" / "repro" / name).read_text())

    def test_no_opcode_is_named_where_the_rows_are_read(self):
        for name in self.NO_OPCODE_NAMED:
            for node in ast.walk(self.tree(name)):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    assert node.value.id != "Op", f"{name}:{node.lineno} names Op.{node.attr}"

    def test_the_scale_rule_is_defined_once(self):
        defined = [
            path.name
            for path in (REPO_ROOT / "src").rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name.lstrip("_") == "scale_of"
        ]
        assert defined == ["scales.py"]

    def test_op_holds_no_opcode_sets(self):
        assert not [name for name, value in vars(Op).items() if isinstance(value, property)]

    def test_the_retired_options_and_chains_are_gone(self):
        from repro.core import executor
        from repro.core.rewrite import folding
        from repro.serving import batching

        retired = {"lower_sum", "remove_copies", "cleanup"}
        assert not retired & {field.name for field in fields(CompilerOptions)}
        assert not hasattr(DEFAULT_COST_MODEL, "term_kind")
        assert not hasattr(batching, "_CROSS_SLOT_OPS")
        assert not hasattr(folding, "_evaluate_plain") and not hasattr(folding, "_FOLDABLE")
        assert not hasattr(executor, "_reference_op")
        assert not hasattr(executor.EvaluationEngine, "_execute_cipher_term")
