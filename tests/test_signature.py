"""Tests for :func:`repro.core.program_signature` (the cache-routing hash)."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.core import CompilationResult, CompilerOptions, Program, program_signature
from repro.core.types import Op, ValueType
from repro.errors import CompilationError

#: Golden value of :func:`_golden_program`'s signature with default options.
#: This hash is part of the wire contract: clients and servers that compiled
#: the same source agree on it across processes and machines, so a change
#: here is a breaking change for every serialized artifact and session.
GOLDEN_SIGNATURE = "2fb87ad0acdd994f0ce5d354865f47096e3166c2394bdf73252220a9759c94fa"

_GOLDEN_SNIPPET = """
from repro.core import Program, program_signature
from repro.core.types import Op, ValueType
program = Program({name!r}, vec_size=8)
x = program.input("x", ValueType.CIPHER, scale=30)
x2 = program.make_term(Op.MULTIPLY, [x, x])
program.set_output("out", x2, scale=30)
print(program_signature(program))
"""


def _golden_program(name: str = "golden") -> Program:
    program = Program(name, vec_size=8)
    x = program.input("x", ValueType.CIPHER, scale=30)
    x2 = program.make_term(Op.MULTIPLY, [x, x])
    program.set_output("out", x2, scale=30)
    return program


class TestProgramSignature:
    def test_matches_golden_hash(self):
        assert program_signature(_golden_program()) == GOLDEN_SIGNATURE

    def test_rename_invariance(self):
        """Renaming a program does not change what the compiler produces."""
        assert (
            program_signature(_golden_program("alpha"))
            == program_signature(_golden_program("omega"))
            == GOLDEN_SIGNATURE
        )

    def test_graph_changes_change_the_signature(self):
        program = _golden_program()
        different = Program("golden", vec_size=8)
        x = different.input("x", ValueType.CIPHER, scale=30)
        x2 = different.make_term(Op.MULTIPLY, [x, x])
        x3 = different.make_term(Op.MULTIPLY, [x2, x])
        different.set_output("out", x3, scale=30)
        assert program_signature(program) != program_signature(different)

    @pytest.mark.parametrize(
        "change",
        [
            {"policy": "chet"},
            {"max_rescale_bits": 40.0},
            {"rescale_bits": 25.0},
            {"waterline_bits": 20.0},
            {"security_level": 192},
            {"lane_width": 4},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_sensitive_to_every_compiler_option(self, change):
        program = _golden_program()
        baseline = program_signature(program, CompilerOptions())
        changed = program_signature(program, replace(CompilerOptions(), **change))
        assert changed != baseline

    def test_every_option_field_is_covered(self):
        """Keep the per-field sensitivity test in sync with CompilerOptions."""
        covered = {
            "policy",
            "max_rescale_bits",
            "rescale_bits",
            "waterline_bits",
            "security_level",
            "lane_width",
        }
        assert {f.name for f in fields(CompilerOptions)} == covered

    def test_unset_lane_width_keeps_legacy_signature(self):
        """lane_width=None serializes to the pre-lane layout: hashes unchanged."""
        program = _golden_program()
        options = CompilerOptions()
        assert options.lane_width is None
        assert "lane_width" not in options.to_dict()
        assert program_signature(program, options) == GOLDEN_SIGNATURE

    def test_scale_overrides_change_the_signature(self):
        program = _golden_program()
        baseline = program_signature(program)
        assert program_signature(program, input_scales={"x": 40.0}) != baseline
        assert program_signature(program, output_scales={"out": 40.0}) != baseline

    def test_stable_across_processes(self):
        """A fresh interpreter computes the identical hash (no per-process salt)."""
        src_dir = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "random"
        output = subprocess.check_output(
            [sys.executable, "-c", _GOLDEN_SNIPPET.format(name="golden")],
            env=env,
            text=True,
        )
        assert output.strip() == GOLDEN_SIGNATURE


class TestRetiredOptions:
    """``lower_sum``, ``remove_copies`` and ``cleanup`` are gone: SUM is always
    expanded, COPY always removed, the cleanup passes always run.  So are
    ``hoist_rotations`` and ``bsgs_rotations``: lane lowering always composes
    the wrap branch, hoisting always runs, the BSGS plan is the cost model's."""

    RETIRED = ("lower_sum", "remove_copies", "cleanup")
    #: Earlier builds left these out of ``to_dict`` at this, their default.
    UNWRITTEN = {"hoist_rotations": True, "bsgs_rotations": "auto"}

    def test_written_at_their_only_value(self):
        data = CompilerOptions().to_dict()
        assert [data[name] for name in self.RETIRED] == [True, True, True]
        assert CompilerOptions.from_dict(data) == CompilerOptions()

    def test_unwritten_ones_read_at_their_only_value(self):
        data = CompilerOptions().to_dict()
        assert not set(self.UNWRITTEN) & set(data)
        assert CompilerOptions.from_dict({**data, **self.UNWRITTEN}) == CompilerOptions()

    @pytest.mark.parametrize("name", RETIRED)
    def test_a_retired_option_set_to_false_is_refused(self, name):
        data = dict(CompilerOptions().to_dict(), **{name: False})
        with pytest.raises(CompilationError, match=repr(name)):
            CompilerOptions.from_dict(data)

    @pytest.mark.parametrize(
        "name, value",
        [("hoist_rotations", False), ("hoist_rotations", 1), ("bsgs_rotations", "off"),
         ("bsgs_rotations", "always")],
    )  # fmt: skip
    def test_an_unwritten_one_at_another_value_is_refused(self, name, value):
        data = dict(CompilerOptions().to_dict(), **{name: value})
        with pytest.raises(CompilationError, match=repr(name)):
            CompilerOptions.from_dict(data)
        with pytest.raises(TypeError):
            CompilerOptions(**{name: value})

    @pytest.mark.parametrize("name, value", [("hoist_rotations", False), ("bsgs_rotations", "off")])
    def test_a_record_carrying_one_fails_to_load(self, name, value):
        from repro.core.compiler import _sha256_of
        from repro.errors import SerializationError

        record = CompilationResult.compile(_golden_program()).to_record()
        del record["digest"]
        record["options"][name] = value
        record["digest"] = _sha256_of(record)  # intact: the option is what fails
        with pytest.raises(SerializationError, match=repr(name)):
            CompilationResult.from_record(record)

    def test_every_pass_they_switched_runs(self):
        program = _golden_program()
        x = program.inputs["x"]
        copied = program.make_term(Op.COPY, [program.make_term(Op.SUM, [x])])
        program.set_output("out", program.make_term(Op.MULTIPLY, [x, copied]), scale=30)
        compiled = CompilationResult.compile(program)
        names = [report.name for report in compiled.pass_reports]
        for name in (
            "remove-copy", "expand-sum", "hoist-rotations", "constant-folding", "cse", "dce",
            "bsgs-rotations",
        ):  # fmt: skip
            assert name in names
        assert not {Op.SUM, Op.COPY} & {term.op for term in compiled.program.terms()}
