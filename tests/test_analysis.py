"""Unit tests for the analysis passes: scales, levels, validation, parameters, rotations."""

import dataclasses
import sys
from pathlib import Path

import pytest

from repro.apps import build_sobel_program
from repro.backend import CkksBackend
from repro.core.analysis import compute_levels, compute_scales, select_rotation_steps, validate
from repro.core.analysis.levels import compute_rescale_chains, merge_chains
from repro.core.analysis.parameters import (
    SECURITY_MAX_COEFF_MODULUS_BITS,
    SPECIAL_PRIME_BITS,
    keyswitch_rows,
    max_modulus_bits,
)
from repro.core.analysis.rotations import normalize_step
from repro.core.analysis.validation import compute_polynomial_counts
from repro.core.compiler import CompilerOptions, compile_program
from repro.core.ir import Program
from repro.core.types import Op, ValueType
from repro.errors import CompilationError, SecurityError, ValidationError
from repro.nn import DnnCompiler, ScaleConfig, build_model


def make_program_with_rescale(rescale_bits=30.0):
    program = Program("p", vec_size=8)
    x = program.input("x", ValueType.CIPHER, scale=30)
    square = program.make_term(Op.MULTIPLY, [x, x])
    rescaled = program.make_term(Op.RESCALE, [square], rescale_value=rescale_bits)
    relin = program.make_term(Op.RELINEARIZE, [rescaled])
    program.set_output("out", relin, scale=30)
    return program


class TestScales:
    def test_multiply_adds_scales(self):
        program = Program("p", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=20)
        y = program.input("y", ValueType.CIPHER, scale=25)
        product = program.make_term(Op.MULTIPLY, [x, y])
        program.set_output("out", product, scale=20)
        scales = compute_scales(program)
        assert scales[product.id] == 45

    def test_rescale_subtracts(self):
        program = make_program_with_rescale(30.0)
        scales = compute_scales(program)
        out = program.outputs["out"]
        assert scales[out.id] == 30

    def test_add_with_plaintext_keeps_cipher_scale(self):
        program = Program("p", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=30)
        c = program.constant(1.0, scale=10)
        added = program.make_term(Op.ADD, [x, c])
        program.set_output("out", added, scale=30)
        scales = compute_scales(program)
        assert scales[added.id] == 30

    def test_rotation_preserves_scale(self):
        program = Program("p", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=30)
        rot = program.make_term(Op.ROTATE_LEFT, [x], rotation=2)
        program.set_output("out", rot, scale=30)
        assert compute_scales(program)[rot.id] == 30


class TestLevelsAndChains:
    def test_levels_increase_at_rescale_and_modswitch(self):
        program = Program("p", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=30)
        r = program.make_term(Op.RESCALE, [x], rescale_value=30.0)
        m = program.make_term(Op.MOD_SWITCH, [r])
        program.set_output("out", m, scale=30)
        levels = compute_levels(program)
        assert levels[x.id] == 0
        assert levels[r.id] == 1
        assert levels[m.id] == 2

    def test_merge_chains_with_wildcards(self):
        assert merge_chains((30.0, None), (30.0, 60.0)) == (30.0, 60.0)
        assert merge_chains((None,), (25.0,)) == (25.0,)
        assert merge_chains((30.0,), (60.0,)) is None
        assert merge_chains((30.0,), (30.0, 30.0)) is None

    def test_nonconforming_chains_raise_in_strict_mode(self):
        program = Program("p", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=30)
        y = program.input("y", ValueType.CIPHER, scale=30)
        rx = program.make_term(Op.RESCALE, [program.make_term(Op.MULTIPLY, [x, x])], rescale_value=30.0)
        added = program.make_term(Op.ADD, [rx, y])
        program.set_output("out", added, scale=30)
        with pytest.raises(ValidationError):
            compute_rescale_chains(program, strict=True)
        compute_rescale_chains(program, strict=False)


class TestValidation:
    def test_valid_program_passes(self):
        validate(make_program_with_rescale())

    def test_constraint2_scale_mismatch(self):
        program = Program("p", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=30)
        y = program.input("y", ValueType.CIPHER, scale=40)
        program.set_output("out", program.make_term(Op.ADD, [x, y]), scale=30)
        with pytest.raises(ValidationError, match="Constraint 2"):
            validate(program)

    def test_constraint3_missing_relinearization(self):
        program = Program("p", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=20)
        square = program.make_term(Op.MULTIPLY, [x, x])
        fourth = program.make_term(Op.MULTIPLY, [square, square])
        program.set_output("out", fourth, scale=20)
        with pytest.raises(ValidationError, match="Constraint 3"):
            validate(program)

    def test_constraint4_rescale_too_large(self):
        program = make_program_with_rescale(70.0)
        with pytest.raises(ValidationError, match="Constraint 4"):
            validate(program, max_rescale_bits=60)

    def test_constraint1_level_mismatch(self):
        program = Program("p", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=30)
        y = program.input("y", ValueType.CIPHER, scale=30)
        switched = program.make_term(Op.MOD_SWITCH, [x])
        program.set_output("out", program.make_term(Op.ADD, [switched, y]), scale=30)
        with pytest.raises(ValidationError):
            validate(program)

    def test_negative_scale_rejected(self):
        make_program_with_rescale(55.0)  # 60 - 55 = 5 > 0: still fine
        # ... so force a destructive rescale instead.
        program2 = Program("p", vec_size=8)
        x = program2.input("x", ValueType.CIPHER, scale=20)
        square = program2.make_term(Op.MULTIPLY, [x, x])
        rescaled = program2.make_term(Op.RESCALE, [square], rescale_value=50.0)
        program2.set_output("out", rescaled, scale=20)
        with pytest.raises(ValidationError, match="non-positive scale"):
            validate(program2)

    def test_zero_scale_rejected(self):
        # Rescaling a scale-40 product by exactly 40 bits leaves scale 2^0:
        # not negative, yet the message is gone all the same.
        program = Program("p", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=20)
        square = program.make_term(Op.MULTIPLY, [x, x])
        rescaled = program.make_term(Op.RESCALE, [square], rescale_value=40.0)
        program.set_output("out", rescaled, scale=20)
        with pytest.raises(ValidationError, match="non-positive scale 2\\^0"):
            validate(program)

    def test_polynomial_counts(self):
        program = Program("p", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=20)
        square = program.make_term(Op.MULTIPLY, [x, x])
        relin = program.make_term(Op.RELINEARIZE, [square])
        program.set_output("out", relin, scale=20)
        counts = compute_polynomial_counts(program)
        assert counts[x.id] == 2
        assert counts[square.id] == 3
        assert counts[relin.id] == 2


class TestParameterSelection:
    def test_parameters_for_compiled_program(self, x2y3_program):
        result = compile_program(x2y3_program, options=CompilerOptions())
        params = result.parameters
        assert params.coeff_modulus_bits[-1] == 60  # special prime
        assert params.total_coeff_modulus_bits == sum(params.coeff_modulus_bits)
        assert params.modulus_count == len(params.coeff_modulus_bits)
        bound = SECURITY_MAX_COEFF_MODULUS_BITS[128][params.poly_modulus_degree]
        assert params.total_coeff_modulus_bits <= bound

    def test_poly_degree_grows_with_modulus(self):
        # A deep program needs a larger N purely because of the security bound.
        program = Program("deep", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=40)
        node = x
        for _ in range(10):
            node = program.make_term(Op.MULTIPLY, [node, node])
        program.set_output("out", node, scale=40)
        result = compile_program(program, options=CompilerOptions())
        assert result.parameters.poly_modulus_degree >= 16384

    def test_security_error_when_program_too_deep(self):
        program = Program("too_deep", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=60)
        node = x
        for _ in range(40):
            node = program.make_term(Op.MULTIPLY, [node, node])
        program.set_output("out", node, scale=60)
        with pytest.raises(SecurityError):
            compile_program(program, options=CompilerOptions())

    def test_max_modulus_bits_table(self):
        assert max_modulus_bits(8192, 128) == 218
        assert max_modulus_bits(32768, 128) == 881
        with pytest.raises(SecurityError):
            max_modulus_bits(123, 128)
        with pytest.raises(SecurityError):
            max_modulus_bits(8192, 96)

    def test_higher_security_needs_larger_degree(self, x2y3_program):
        low = compile_program(x2y3_program, options=CompilerOptions(security_level=128))
        high = compile_program(x2y3_program, options=CompilerOptions(security_level=256))
        assert high.parameters.poly_modulus_degree >= low.parameters.poly_modulus_degree

    def test_summary_keys(self, x2y3_program):
        result = compile_program(x2y3_program)
        summary = result.parameters.summary()
        assert set(summary) == {"log_n", "log_q", "r"}


# -- what the compiler selects is what runs ---------------------------------------------
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"))
import e2e_programs  # noqa: E402
from compiled_corpus import CASES  # noqa: E402

SWEPT = dict(CASES)
for _entry in e2e_programs.compile_zoo():
    SWEPT[_entry.name] = lambda entry=_entry: (entry.build()[0], CompilerOptions())


def one_special_prime(options):
    """The width of the one special prime the chain's ``N`` is chosen for."""
    return max(int(options.max_rescale_bits), SPECIAL_PRIME_BITS)


def assert_key_switching_invariants(parameters, options, program):
    """What grouped key switching must keep of the one-special-prime selection.

    ``N`` is the one that chain gets (the smallest degree of the table with
    twice the program's slots whose bound holds the data primes and one
    special prime); every special prime is at most that prime's width; the
    special primes divide the widest digit group by at least as many bits as
    the one prime divided the widest data prime; and the program's key
    switches transform no more rows than with one special prime.
    """
    data, table = parameters.data_bits, SECURITY_MAX_COEFF_MODULUS_BITS[options.security_level]
    special, width = parameters.coeff_modulus_bits[len(data) :], one_special_prime(options)
    assert len(special) == parameters.special_primes and special
    degree = max(2 * program.vec_size, min(table))
    while table[degree] < sum(data) + width:
        degree *= 2
    assert parameters.poly_modulus_degree == degree
    assert sum(parameters.coeff_modulus_bits) <= table[degree]
    assert all(bits <= width for bits in special) and len(set(special)) == 1
    basis, size = data[::-1], parameters.group_size
    widest = max(sum(basis[start : start + size]) for start in range(0, len(basis), size))
    assert sum(special) - widest >= width - max(data)
    assert keyswitch_rows(program, len(data), size, len(special)) <= keyswitch_rows(program, len(data))


def created_or_refused(program, options):
    """The real backend's context of the compilation, or ``None`` when it does not compile."""
    try:
        compiled = compile_program(getattr(program, "graph", program), options=options)
    except CompilationError:
        return None
    assert_key_switching_invariants(compiled.parameters, options, compiled.program)
    context = CkksBackend().create_context(compiled.parameters)
    assert context.context.coeff_modulus_bits == compiled.parameters.coeff_modulus_bits
    assert len(context.context.special_primes) == compiled.parameters.special_primes
    assert context.context.group_size == compiled.parameters.group_size
    return context


class TestParametersThatRun:
    """The compiler chooses every prime's width, the special prime's too, and
    the security check counts the primes the backend then makes as they are."""

    @pytest.mark.parametrize("name", list(SWEPT))
    def test_every_program_compiles_to_a_context_or_not_at_all(self, name):
        program, options = SWEPT[name]()
        for bits in range(20, 31):
            created_or_refused(program, dataclasses.replace(options, max_rescale_bits=bits))

    def test_sobel_at_27_bits_steps_up_to_a_degree_that_holds_its_chain(self):
        """8 x 27 = 216 <= 218 bits at N = 8192 once passed the check, and the
        backend then raised the special prime to 30 bits: 219 > 218.  At
        N = 16384 the seven data primes are grouped 4 + 3 over four 28-bit
        special primes (a 30-bit one before grouping): 112 >= 108 + 3."""
        program = build_sobel_program(image_size=64, scale=27.0)
        context = created_or_refused(program, CompilerOptions(max_rescale_bits=27))
        assert context.parameters.poly_modulus_degree == 16384
        assert context.parameters.coeff_modulus_bits == [27] * 7 + [28] * 4
        assert context.parameters.group_size == 4


TABLE6_SCALES = {
    "LeNet-5-small": ScaleConfig(cipher=25, vector=15, scalar=10, output=30),
    "LeNet-5-medium": ScaleConfig(cipher=25, vector=15, scalar=10, output=30),
    "LeNet-5-large": ScaleConfig(cipher=25, vector=20, scalar=10, output=25),
    "Industrial": ScaleConfig(cipher=30, vector=15, scalar=10, output=30),
    "SqueezeNet-CIFAR": ScaleConfig(cipher=25, vector=15, scalar=10, output=30),
}


class TestKeySwitchingSelection:
    """The digit groups and special primes ``select_parameters`` adds to a chain."""

    @pytest.mark.parametrize("name", list(CASES))
    def test_every_corpus_case(self, name):
        program, options = CASES[name]()
        compiled = compile_program(getattr(program, "graph", program), options=options)
        assert_key_switching_invariants(compiled.parameters, options, compiled.program)

    @pytest.mark.parametrize("policy", ["eva", "chet"])
    @pytest.mark.parametrize("name", list(TABLE6_SCALES))
    def test_every_table6_network(self, name, policy):
        options = CompilerOptions(policy=policy)
        program = DnnCompiler(TABLE6_SCALES[name], options).build_program(build_model(name))
        compiled = compile_program(program.graph, options=options)
        assert_key_switching_invariants(compiled.parameters, options, compiled.program)

    def test_a_chain_with_no_room_keeps_one_special_prime(self):
        """``batch_poly``: 105 of N = 4096's 109 bits, so no second special prime fits."""
        options = e2e_programs.serving_options()
        compiled = compile_program(e2e_programs.build_batch_poly().graph, options=options)
        parameters = compiled.parameters
        assert parameters.coeff_modulus_bits == [25, 25, 25, 30]
        assert (parameters.group_size, parameters.special_primes) == (1, 1)
        assert_key_switching_invariants(parameters, options, compiled.program)

    def test_a_program_that_switches_no_key_keeps_one_special_prime(self):
        program = Program("p", vec_size=16)
        x = program.input("x", ValueType.CIPHER, scale=25)
        program.set_output("out", program.make_term(Op.ADD, [x, x]), scale=25)
        parameters = compile_program(program, options=CompilerOptions(max_rescale_bits=25)).parameters
        assert parameters.coeff_modulus_bits[-1:] == [30] and parameters.special_primes == 1

    @pytest.mark.parametrize(
        "build, shape, rows, one_prime_rows",
        [
            # Ten rotations of ten operands, each read only by an add: d*K
            # decomposition rows and K to divide c1, with one digit over two
            # special primes (4 + 4) where two one-prime digits took 6 + 3.
            (e2e_programs.build_rotate_sum, (2, 2), 10 * (4 + 4), 10 * (6 + 3)),
            # Relinearizations at levels 0 and 1: d*K + 2k, 2*6 + 4 and 2*5 + 4,
            # where one-prime digits took 4*5 + 2 and 3*4 + 2.
            (e2e_programs.build_relin_poly, (2, 2), 16 + 14, 22 + 14),
            # The bypass: one relinearization at level 0, 3*4 + 2.
            (e2e_programs.build_batch_poly, (1, 1), 14, 14),
        ],
        ids=["rotate_sum", "relin_poly", "batch_poly"],
    )
    def test_the_served_programs_rows(self, build, shape, rows, one_prime_rows):
        compiled = compile_program(build().graph, options=e2e_programs.serving_options())
        parameters = compiled.parameters
        assert (parameters.group_size, parameters.special_primes) == shape
        data = len(parameters.data_bits)
        assert keyswitch_rows(compiled.program, data, *shape) == rows
        assert keyswitch_rows(compiled.program, data) == one_prime_rows

    def test_hoisted_rotations_share_a_decomposition_and_a_read_value_pays_its_division(self):
        """Three rotations of one operand decompose it once; the one a multiply
        reads divides c0 too (K more), the ones an add reads leave that to the sum."""
        program = Program("p", vec_size=16)
        x = program.input("x", ValueType.CIPHER, scale=25)
        r1, r2, r3 = (program.make_term(Op.ROTATE_LEFT, [x], rotation=k) for k in (1, 2, 3))
        product = program.make_term(Op.MULTIPLY, [r3, program.constant(2.0, scale=10)])
        total = program.make_term(Op.ADD, [program.make_term(Op.ADD, [r1, r2]), product])
        program.set_output("out", total, scale=25)
        # Four data primes in two digits over two special primes: d*K = 2*6.
        assert keyswitch_rows(program, 4, 2, 2) == 2 * 6 + 3 * 6 + 6


class TestRotationSelection:
    def test_normalize_step(self):
        assert normalize_step(Op.ROTATE_LEFT, 3, 16) == 3
        assert normalize_step(Op.ROTATE_RIGHT, 3, 16) == 13
        assert normalize_step(Op.ROTATE_LEFT, 16, 16) == 0
        assert normalize_step(Op.ROTATE_LEFT, -1, 16) == 15

    def test_rotation_steps_collected_and_deduplicated(self):
        program = Program("p", vec_size=16)
        x = program.input("x", ValueType.CIPHER, scale=30)
        r1 = program.make_term(Op.ROTATE_LEFT, [x], rotation=2)
        r2 = program.make_term(Op.ROTATE_LEFT, [x], rotation=2)
        r3 = program.make_term(Op.ROTATE_RIGHT, [x], rotation=4)
        total = program.make_term(Op.ADD, [program.make_term(Op.ADD, [r1, r2]), r3])
        program.set_output("out", total, scale=30)
        assert select_rotation_steps(program) == [2, 12]

    def test_zero_rotation_excluded(self):
        program = Program("p", vec_size=16)
        x = program.input("x", ValueType.CIPHER, scale=30)
        r = program.make_term(Op.ROTATE_LEFT, [x], rotation=16)
        program.set_output("out", program.make_term(Op.ADD, [r, x]), scale=30)
        assert select_rotation_steps(program) == []
