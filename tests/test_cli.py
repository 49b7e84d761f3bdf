"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.serialization import save
from repro.frontend import EvaProgram, input_encrypted, output


@pytest.fixture
def program_file(tmp_path):
    program = EvaProgram("cli_demo", vec_size=16, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("out", x * x + (x << 1), 25)
    path = tmp_path / "demo.evaproto"
    save(program.graph, path)
    return path


@pytest.fixture
def inputs_file(tmp_path):
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps({"x": list(np.linspace(-1, 1, 16))}))
    return path


class TestCli:
    def test_info(self, program_file, capsys):
        assert main(["info", str(program_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["vec_size"] == 16
        assert report["outputs"] == ["out"]
        assert report["multiplicative_depth"] == 1

    def test_compile(self, program_file, tmp_path, capsys):
        out_path = tmp_path / "compiled.evaproto"
        assert main(["compile", str(program_file), "-o", str(out_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert out_path.exists()
        assert report["policy"] == "eva"
        assert report["r"] >= 2

    def test_run_input_program(self, program_file, inputs_file, capsys):
        assert main(
            ["run", str(program_file), "--inputs", str(inputs_file), "--backend", "mock-exact"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        x = np.linspace(-1, 1, 16)
        expected = (x * x + np.roll(x, -1))[:8]
        np.testing.assert_allclose(report["outputs"]["out"], expected, atol=1e-6)

    def test_compile_then_run_uses_the_record_as_it_is(self, program_file, inputs_file, tmp_path, capsys):
        """`compile -o` writes the compiled-program record, parameters and all,
        so `run` needs no compile flag again — and refuses one beside it."""
        from repro.api import CompiledProgram

        compiled_path = tmp_path / "compiled.json"
        flags = ["--max-rescale-bits", "40", "--policy", "chet"]
        assert main(["compile", str(program_file), "-o", str(compiled_path), *flags]) == 0
        summary = json.loads(capsys.readouterr().out)
        record = CompiledProgram.load(compiled_path)
        assert record.options.max_rescale_bits == 40.0 and record.options.policy == "chet"
        assert record.parameters.coeff_modulus_bits == summary["coeff_modulus_bits"]
        assert max(record.parameters.coeff_modulus_bits) <= 40

        run = ["run", str(compiled_path), "--inputs", str(inputs_file), "--backend", "mock-exact"]
        assert main(run) == 0
        report = json.loads(capsys.readouterr().out)
        x = np.linspace(-1, 1, 16)
        np.testing.assert_allclose(report["outputs"]["out"], (x * x + np.roll(x, -1))[:8], atol=1e-6)
        # A flag beside a record cannot apply: refused, not silently ignored.
        assert main(run + ["--max-rescale-bits", "60"]) == 1
        error = capsys.readouterr().err
        assert "compiled-program record" in error and "--max-rescale-bits" in error

    def test_commands_that_compile_say_what_a_record_is(self, program_file, tmp_path, capsys):
        from repro.core.compiler import CompilationResult
        from repro.core.serialization import load, save

        compiled_path = tmp_path / "compiled.json"
        assert main(["compile", str(program_file), "-o", str(compiled_path)]) == 0
        capsys.readouterr()
        for command in (["info"], ["serve", "--port", "0"], ["compile", "-o", str(tmp_path / "again.json")]):
            assert main([*command, str(compiled_path)]) == 1
            assert "is a compiled-program record" in capsys.readouterr().err
        # The bare compiled graph earlier builds wrote has lost its parameters.
        bare = tmp_path / "bare.evaproto"
        save(CompilationResult.compile(load(program_file)).program, bare)
        for command in (["run", "--inputs", "unused.json"], ["serve", "--port", "0"]):
            assert main([*command, str(bare)]) == 1
            assert "already-compiled bare graph" in capsys.readouterr().err

    def test_submit_encrypt_takes_the_record_as_its_program_file(self, program_file, inputs_file, tmp_path, capsys):
        from repro.backend import MockBackend
        from repro.core import CompilerOptions
        from repro.core.serialization import load
        from repro.serving import EvaServer, EvaTcpServer

        compiled_path = tmp_path / "compiled.json"
        assert main(["compile", str(program_file), "-o", str(compiled_path), "--policy", "chet"]) == 0
        # What `serve --policy chet` registers: the flags' defaults are floats.
        options = CompilerOptions(policy="chet", max_rescale_bits=60.0, security_level=128)
        with EvaServer(backend=MockBackend(error_model="none"), workers=1) as server:
            server.register("demo", load(program_file), options=options)
            tcp = EvaTcpServer(server, port=0)
            tcp.start_background()
            try:
                submit = [
                    "submit", "demo", "--inputs", str(inputs_file), "--port", str(tcp.address[1]),
                    "--encrypt", "--program-file", str(compiled_path), "--backend", "mock-exact",
                ]  # fmt: skip
                capsys.readouterr()
                assert main(submit) == 0
                report = json.loads(capsys.readouterr().out)
                x = np.linspace(-1, 1, 16)
                np.testing.assert_allclose(report["outputs"]["out"], (x * x + np.roll(x, -1))[:8], atol=1e-6)
                assert report["stats"]["encrypted"] is True
                assert main(submit + ["--policy", "chet"]) == 1
                assert "drop --policy" in capsys.readouterr().err
            finally:
                tcp.shutdown()

    def test_error_reported_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "missing.evaproto"
        assert main(["info", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err
