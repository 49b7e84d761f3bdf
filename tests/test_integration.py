"""Cross-module integration tests: frontend -> compiler -> serialization -> executor."""

import numpy as np

from repro.backend import MockBackend
from repro.core import CompilerOptions, Executor, compile_program, execute_reference, simulate_schedule
from repro.core.serialization import load, save
from repro.frontend import EvaProgram, constant, input_encrypted, output
from repro.nn import DnnCompiler, ScaleConfig, build_lenet_small, encrypted_inference, synthetic_image_dataset, train_readout


class TestEndToEndPipelines:
    def test_serialize_compile_execute_roundtrip(self, tmp_path):
        """An input program saved to disk, reloaded, compiled, and executed."""
        program = EvaProgram("pipeline", vec_size=32, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            weights = constant(np.linspace(0, 1, 32).tolist(), 15)
            output("out", (x * weights) ** 2 + x, 25)

        path = tmp_path / "pipeline.evaproto"
        save(program.graph, path)
        restored = load(path)

        compiled = compile_program(restored, output_scales={"out": 25})
        xv = np.random.default_rng(0).uniform(-1, 1, 32)
        result = Executor(compiled, MockBackend(seed=0)).execute({"x": xv})
        reference = execute_reference(program.graph, {"x": xv})
        np.testing.assert_allclose(result["out"], reference["out"], atol=1e-3)

    def test_compiled_program_can_be_serialized(self, tmp_path):
        """The executable (post-compilation) program also round-trips to disk."""
        program = EvaProgram("exe", vec_size=16, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("out", x * x + x, 25)
        compiled = program.compile()
        path = tmp_path / "compiled.evaproto"
        save(compiled.program, path)
        restored = load(path)
        assert restored.op_counts() == compiled.program.op_counts()

    def test_policy_comparison_full_stack(self):
        """Table 5/6 shape on a non-trivial program: EVA <= CHET in params and latency."""
        net = build_lenet_small()
        eva = DnnCompiler(ScaleConfig(), CompilerOptions(policy="eva")).compile(net)
        chet = DnnCompiler(ScaleConfig(), CompilerOptions(policy="chet")).compile(net)

        assert eva.compilation.parameters.modulus_count <= chet.compilation.parameters.modulus_count
        assert (
            eva.compilation.parameters.total_coeff_modulus_bits
            <= chet.compilation.parameters.total_coeff_modulus_bits
        )
        eva_latency = simulate_schedule(eva.compilation, threads=8, discipline="dag")
        chet_latency = simulate_schedule(chet.compilation, threads=8, discipline="kernel")
        assert eva_latency.makespan_seconds <= chet_latency.makespan_seconds

    def test_encrypted_dnn_accuracy_matches_plaintext(self):
        """Table 4 shape: encrypted accuracy equals unencrypted accuracy."""
        net = build_lenet_small()
        dataset = synthetic_image_dataset(
            num_classes=10, image_shape=(1, 8, 8), train_per_class=12, test_per_class=2, seed=3
        )
        train_readout(net, dataset, epochs=400, learning_rate=1.0)
        compiled = DnnCompiler(ScaleConfig()).compile(net)
        backend = MockBackend(seed=11)
        matches = 0
        samples = 8
        for image in dataset.test_images[:samples]:
            encrypted = int(np.argmax(encrypted_inference(compiled, image, backend=backend)))
            plaintext = net.predict(image)
            matches += int(encrypted == plaintext)
        assert matches == samples

    def test_threads_do_not_change_results(self):
        program = EvaProgram("threads", vec_size=64, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            acc = None
            for i in range(8):
                branch = (x << i) * (x << i)
                acc = branch if acc is None else acc + branch
            output("out", acc, 25)
        compiled = program.compile()
        xv = np.random.default_rng(1).uniform(-1, 1, 64)
        single = Executor(compiled, MockBackend(error_model="none")).execute({"x": xv})
        multi = Executor(compiled, MockBackend(error_model="none"), threads=8).execute({"x": xv})
        np.testing.assert_allclose(single["out"], multi["out"], rtol=1e-12)

    def test_validation_guarantee_no_backend_exceptions(self):
        """The compiler's core guarantee: a validated program never triggers a
        runtime constraint error in the backend, for either policy."""
        programs = []
        for depth in (1, 2, 3):
            program = EvaProgram(f"depth{depth}", vec_size=16, default_scale=25)
            with program:
                x = input_encrypted("x", 25)
                node = x
                for _ in range(depth):
                    node = node * node + x
                output("out", node, 25)
            programs.append(program)
        xv = np.random.default_rng(2).uniform(-0.5, 0.5, 16)
        for program in programs:
            for policy in ("eva", "chet"):
                compiled = program.compile(options=CompilerOptions(policy=policy))
                Executor(compiled, MockBackend(seed=0)).execute({"x": xv})
