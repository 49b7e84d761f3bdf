"""Tests for the reference executor and the backend executor (incl. memory reuse)."""

import threading

import numpy as np
import pytest

from repro.backend import MockBackend
from repro.backend.mock_backend import MockContext
from repro.core import Executor, ReferenceExecutor, execute_reference
from repro.core.ir import Program
from repro.core.types import Op, ValueType
from repro.errors import ExecutionError
from repro.frontend import EvaProgram, input_encrypted, input_plain, output, sum_slots


class TestReferenceExecutor:
    def test_basic_arithmetic(self):
        program = EvaProgram("arith", vec_size=8, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            y = input_encrypted("y", 25)
            output("sum", x + y, 25)
            output("diff", x - y, 25)
            output("prod", x * y, 25)
            output("neg", -x, 25)
        xv = np.arange(8, dtype=float)
        yv = np.ones(8) * 2
        out = execute_reference(program.graph, {"x": xv, "y": yv})
        np.testing.assert_allclose(out["sum"], xv + yv)
        np.testing.assert_allclose(out["diff"], xv - yv)
        np.testing.assert_allclose(out["prod"], xv * yv)
        np.testing.assert_allclose(out["neg"], -xv)

    def test_rotations(self):
        program = EvaProgram("rot", vec_size=8, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("left", (x << 3) * 1.0, 25)
            output("right", (x >> 2) * 1.0, 25)
        xv = np.arange(8, dtype=float)
        out = execute_reference(program.graph, {"x": xv})
        np.testing.assert_allclose(out["left"], np.roll(xv, -3))
        np.testing.assert_allclose(out["right"], np.roll(xv, 2))

    def test_sum_reduction(self):
        program = EvaProgram("sum", vec_size=8, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("total", x.sum(), 25)
        xv = np.arange(8, dtype=float)
        out = execute_reference(program.graph, {"x": xv})
        np.testing.assert_allclose(out["total"], np.full(8, xv.sum()))

    def test_scalar_broadcasting(self):
        program = EvaProgram("bcast", vec_size=8, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("out", x * 2.0 + 1.0, 25)
        out = execute_reference(program.graph, {"x": 3.0})
        np.testing.assert_allclose(out["out"], np.full(8, 7.0))

    def test_short_input_replication(self):
        program = EvaProgram("rep", vec_size=8, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("out", x * 1.0, 25)
        out = execute_reference(program.graph, {"x": [1.0, 2.0]})
        np.testing.assert_allclose(out["out"], np.tile([1.0, 2.0], 4))

    def test_missing_input_raises(self, simple_pyeva_program):
        with pytest.raises(ExecutionError):
            execute_reference(simple_pyeva_program.graph, {"x": np.zeros(16)})

    def test_fhe_ops_are_identities(self):
        program = Program("fhe", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=30)
        relin = program.make_term(Op.RELINEARIZE, [program.make_term(Op.MULTIPLY, [x, x])])
        rescaled = program.make_term(Op.RESCALE, [relin], rescale_value=30.0)
        program.set_output("out", rescaled, scale=30)
        out = ReferenceExecutor(program).execute({"x": np.full(8, 2.0)})
        np.testing.assert_allclose(out["out"], np.full(8, 4.0))


class TestBackendExecutor:
    def test_matches_reference_on_mock(self, simple_pyeva_program, simple_inputs, noiseless_backend):
        compiled = simple_pyeva_program.compile()
        result = Executor(compiled, noiseless_backend).execute(simple_inputs)
        reference = execute_reference(simple_pyeva_program.graph, simple_inputs)
        np.testing.assert_allclose(result["w"], reference["w"], rtol=1e-9, atol=1e-12)

    def test_noise_model_stays_close_to_reference(self, simple_pyeva_program, simple_inputs, mock_backend):
        compiled = simple_pyeva_program.compile()
        result = Executor(compiled, mock_backend).execute(simple_inputs)
        reference = execute_reference(simple_pyeva_program.graph, simple_inputs)
        np.testing.assert_allclose(result["w"], reference["w"], atol=1e-2)

    def test_plain_inputs_supported(self, noiseless_backend):
        program = EvaProgram("plain", vec_size=8, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            mask = input_plain("mask", 15)
            output("out", x * mask + mask, 25)
        xv = np.arange(8, dtype=float)
        mv = np.linspace(0, 1, 8)
        compiled = program.compile()
        result = Executor(compiled, noiseless_backend).execute({"x": xv, "mask": mv})
        np.testing.assert_allclose(result["out"], xv * mv + mv, rtol=1e-9)

    def test_subtraction_with_plain_on_left(self, noiseless_backend):
        program = EvaProgram("sub", vec_size=8, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("out", 1.0 - x, 25)
        xv = np.linspace(-1, 1, 8)
        compiled = program.compile()
        result = Executor(compiled, noiseless_backend).execute({"x": xv})
        np.testing.assert_allclose(result["out"], 1.0 - xv, rtol=1e-9)

    def test_missing_input_raises(self, simple_pyeva_program, mock_backend):
        compiled = simple_pyeva_program.compile()
        with pytest.raises(ExecutionError):
            Executor(compiled, mock_backend).execute({"x": np.zeros(16)})

    def test_execution_stats_populated(self, simple_pyeva_program, simple_inputs, mock_backend):
        compiled = simple_pyeva_program.compile()
        result = Executor(compiled, mock_backend).execute(simple_inputs)
        stats = result.stats
        assert stats.op_count > 0
        assert stats.wall_seconds > 0
        assert stats.peak_live_ciphertexts > 0
        assert stats.peak_live_ciphertexts <= stats.op_count

    def test_memory_reuse_limits_live_ciphertexts(self, noiseless_backend):
        # A long chain of multiplies by constants should only ever keep a
        # couple of ciphertexts alive at a time thanks to retirement.
        program = EvaProgram("chain", vec_size=8, default_scale=20)
        with program:
            x = input_encrypted("x", 20)
            node = x
            for _ in range(30):
                node = node * 0.9
            output("out", node, 20)
        compiled = program.compile()
        executor = Executor(compiled, noiseless_backend)
        result = executor.execute({"x": np.ones(8)})
        assert result.stats.peak_live_ciphertexts <= 5

    def test_parallel_execution_matches_serial(self, simple_pyeva_program, simple_inputs):
        compiled = simple_pyeva_program.compile()
        serial = Executor(compiled, MockBackend(error_model="none")).execute(simple_inputs)
        parallel = Executor(compiled, MockBackend(error_model="none"), threads=4).execute(simple_inputs)
        np.testing.assert_allclose(parallel["w"], serial["w"], rtol=1e-9)

    def test_output_truncated_to_vec_size(self, simple_pyeva_program, simple_inputs, mock_backend):
        compiled = simple_pyeva_program.compile()
        result = Executor(compiled, mock_backend).execute(simple_inputs)
        assert result["w"].shape == (16,)

    def test_default_backend_is_mock(self, simple_pyeva_program, simple_inputs):
        compiled = simple_pyeva_program.compile()
        result = Executor(compiled).execute(simple_inputs)
        assert "w" in result.outputs

    def test_injected_context_skips_context_stage(self, simple_pyeva_program, simple_inputs):
        compiled = simple_pyeva_program.compile()
        executor = Executor(compiled, MockBackend(error_model="none"))
        context = executor.create_context()
        warm = executor.execute(simple_inputs, context=context)
        cold = executor.execute(simple_inputs)
        assert warm.stats.context_seconds == 0.0
        assert cold.stats.context_seconds > 0.0
        np.testing.assert_allclose(warm["w"], cold["w"], rtol=1e-9)


class _SentinelFailingContext(MockContext):
    """Noiseless mock context that fails the multiply of a sentinel operand.

    Detection is by operand *value*, so exactly one term of the test programs
    fails no matter how threads interleave.  With ``block_others`` set, every
    other multiply parks until the failure has happened — which makes "was a
    consumer dispatched after the error?" a deterministic question instead of
    a timing-dependent one.
    """

    SENTINEL = 7.0

    def __init__(self, parameters, block_others: bool = False):
        super().__init__(parameters, error_model="none")
        self.block_others = block_others
        self.error_event = threading.Event()
        self.survivor_multiplies = 0

    def multiply(self, a, b):
        if a.values[0] == self.SENTINEL and b.values[0] == self.SENTINEL:
            self.error_event.set()
            raise ExecutionError("injected failure on the sentinel operand")
        if self.block_others:
            self.error_event.wait(5.0)
        self.survivor_multiplies += 1
        return super().multiply(a, b)


class _SentinelFailingBackend(MockBackend):
    def __init__(self, block_others: bool = False):
        super().__init__(error_model="none")
        self.block_others = block_others
        self.last_context = None

    def create_context(self, parameters):
        self.last_context = _SentinelFailingContext(parameters, self.block_others)
        return self.last_context


class TestParallelErrorPath:
    """The parallel executor must stop dispatching and re-raise deterministically."""

    CHAIN_LENGTH = 6

    @classmethod
    def _two_branch_program(cls) -> EvaProgram:
        # Output "a" fails at its one multiply (x is the 7.0 sentinel);
        # output "b" is an independent chain of multiplies on y.
        program = EvaProgram("twobranch", vec_size=8, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            y = input_encrypted("y", 25)
            output("a", x * x, 25)
            node = y
            for _ in range(cls.CHAIN_LENGTH):
                node = node * y
            output("b", node, 25)
        return program

    @classmethod
    def _inputs(cls):
        return {
            "x": np.full(8, _SentinelFailingContext.SENTINEL),
            "y": np.full(8, 1.01),
        }

    def test_error_is_reraised(self):
        compiled = self._two_branch_program().compile()
        with pytest.raises(ExecutionError, match="injected failure"):
            Executor(compiled, _SentinelFailingBackend(), threads=4).execute(self._inputs())

    def test_error_is_deterministic_across_runs(self):
        compiled = self._two_branch_program().compile()
        seen = set()
        for _ in range(5):
            with pytest.raises(ExecutionError) as excinfo:
                Executor(compiled, _SentinelFailingBackend(), threads=4).execute(
                    self._inputs()
                )
            seen.add((type(excinfo.value), str(excinfo.value)))
        assert len(seen) == 1

    def test_no_consumers_dispatched_after_error(self):
        # Non-failing multiplies block until the failure happens, so only the
        # already-dispatched first chain link may complete; if the executor
        # kept dispatching newly-ready consumers after the error, the whole
        # y-chain would run and survivor_multiplies would reach CHAIN_LENGTH.
        compiled = self._two_branch_program().compile()
        backend = _SentinelFailingBackend(block_others=True)
        with pytest.raises(ExecutionError):
            Executor(compiled, backend, threads=2).execute(self._inputs())
        assert backend.last_context.survivor_multiplies <= 1

    def test_serial_and_parallel_raise_same_error(self):
        compiled = self._two_branch_program().compile()
        serial_backend = _SentinelFailingBackend()
        with pytest.raises(ExecutionError) as serial_exc:
            Executor(compiled, serial_backend, threads=1).execute(self._inputs())
        parallel_backend = _SentinelFailingBackend()
        with pytest.raises(ExecutionError) as parallel_exc:
            Executor(compiled, parallel_backend, threads=4).execute(self._inputs())
        assert str(serial_exc.value) == str(parallel_exc.value)
        assert type(serial_exc.value) is type(parallel_exc.value)


def _failing_on_call(context, op, nth):
    """Make ``context.<op>`` raise on its ``nth`` call from now on (1-based)."""
    real, calls = getattr(context, op), []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == nth:
            raise ExecutionError(f"injected {op} failure")
        return real(*args, **kwargs)

    setattr(context, op, failing)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("backend_id", ["mock", "ckks"])
class TestFailedEvaluationReleasesItsIntermediates:
    """An evaluation that fails mid-DAG hands nothing back, so it leaves nothing
    live: the context's count returns to what it was before the call."""

    @staticmethod
    def _engine(backend_id, threads):
        from repro.backend.seal_backend import CkksBackend
        from repro.core import CompilerOptions, EvaluationEngine
        from repro.core.compiler import CompilationResult

        program = EvaProgram("leaky", vec_size=16, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            y = input_encrypted("y", 25)
            output("out", ((x * y) << 1) + sum_slots(x * 0.5), 25)
        options = CompilerOptions(max_rescale_bits=25)
        backend = MockBackend(error_model="none") if backend_id == "mock" else CkksBackend(seed=3)
        engine = EvaluationEngine(
            CompilationResult.compile(program, options=options), backend, threads
        )
        context = backend.create_context(engine.compilation.parameters)
        context.generate_keys()
        return engine, context

    @pytest.mark.parametrize("retire_inputs", [False, True])
    def test_live_count_returns_to_its_pre_call_value(self, backend_id, threads, retire_inputs):
        engine, context = self._engine(backend_id, threads)
        inputs = {"x": np.linspace(-1, 1, 16), "y": np.linspace(1, -1, 16)}
        # The last rotation: everything before it has produced a value by then.
        rotations = sum(1 for t in engine.program.terms() if t.op in (Op.ROTATE_LEFT, Op.ROTATE_RIGHT))
        _failing_on_call(context, "rotate", rotations)
        for _attempt in range(3):
            ciphers, plain = engine.encrypt_inputs(context, inputs)
            before = context.live_ciphertexts
            with pytest.raises(ExecutionError, match="injected rotate failure"):
                engine.evaluate(context, ciphers, plain, retire_inputs=retire_inputs)
            # The caller's inputs are the caller's unless it gave them up.
            expected = before - len(ciphers) if retire_inputs else before
            assert context.live_ciphertexts == expected
            for handle in ciphers.values():
                context.release(handle)  # a second release is a no-op
            assert context.live_ciphertexts == before - len(ciphers)
            del context.rotate
            _failing_on_call(context, "rotate", rotations)
