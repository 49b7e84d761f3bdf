"""Form follows the operation: every path a form can take is the coefficient path.

An ``RnsPolynomial`` carries its form, and a polynomial a key switch has been
added to may stay *extended* — over the key basis, its division by the special
prime still owed — until something needs its value: both polynomials after an
evaluation-form ``relinearize``, ``c0`` after a ``rotate``.  These tests hold
every operation, in every combination of operand forms, to the answer the same
operation gives when every value is settled and forced back to coefficient
form after each step (what the scheme did before forms existed), to the
independent oracles in ``tests/oracles``, and to exact NTT row counts.

The relation to the step-by-step run is exact wherever one key-switch result
is divided at a time.  Where several are summed before the one division, the
roundings merge — ``round((a + b) / P)`` against ``round(a / P) + round(b /
P)`` — and the polynomial may differ from the step-by-step one by *one small
integer polynomial* (the same centered value in every RNS row), bounded by
half the number of results merged.
"""

import json
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles.keyswitch import ReferenceEvaluator, coefficient_form
from oracles.rns import divide_and_round_sequential

from repro.api import (
    ClientKit,
    CompiledProgram,
    CompilerOptions,
    EvaProgram,
    ServerRuntime,
    execute_reference,
    input_encrypted,
    output,
)
from repro.apps import build_sobel_program, random_image
from repro.backend import CkksBackend
from repro.ckks import Ciphertext, CkksContext, Decryptor, Encryptor, Evaluator, KeyGenerator
from repro.ckks import ntt
from repro.ckks.ntt import get_ntt_kernel, ntt_rows
from repro.ckks.numth import generate_ntt_primes
from repro.ckks.rns import COEFF, EVAL, RnsBasis, RnsPolynomial
from repro.core.executor import EvaluationEngine
from repro.core.serialization.packing import pack_residues, unpack_residues
from repro.errors import SerializationError
from repro.profiling import _profile_spec, profile_program
from repro.serving import EvaServer

N = 256
SCALE = 2.0**26
STEP = 3


@pytest.fixture(scope="module")
def scheme():
    context = CkksContext(N, [26, 26, 26, 30], enforce_security=False)
    keygen = KeyGenerator(context, seed=5)
    keys = keygen.create_relin_key(), keygen.create_galois_keys([1, STEP])
    encryptor = Encryptor(context, keygen.create_public_key(), seed=6)
    rng = np.random.default_rng(7)
    values = rng.uniform(-1.0, 1.0, (3, context.slots))
    return SimpleNamespace(
        context=context,
        encryptor=encryptor,
        decryptor=Decryptor(context, keygen.secret_key),
        evaluator=Evaluator(context, *keys),
        stepwise=StepwiseCoefficientEvaluator(context, *keys),
        reference=ReferenceEvaluator(context, *keys),
        values=values,
        fresh=[encryptor.encode_and_encrypt(row, SCALE) for row in values],
        plain=encryptor.encode(np.linspace(-1.0, 1.0, context.slots), SCALE**2),
    )


def rounding_difference(got, want):
    """``got - want`` of two coefficient-form polynomials as one centered integer row.

    Asserts it *is* one integer polynomial — the same centered value in every
    RNS row — which is all a merged rounding can make of it.
    """
    assert got.basis == want.basis and got.form == want.form == COEFF
    primes = got.basis.primes_column
    difference = (got.residues - want.residues) % primes
    difference = np.where(difference > primes // 2, difference - primes, difference)
    assert (difference == difference[0]).all()
    return difference[0]


def assert_same_ciphertext(got, want, merged=0):
    """``got`` is ``want``, up to ``merged`` roundings folded into one per polynomial."""
    got, want = coefficient_form(got), coefficient_form(want)
    assert (got.size, got.scale, got.level) == (want.size, want.scale, want.level)
    for a, b in zip(got.polys, want.polys):
        if merged < 2:
            assert a.basis == b.basis and a.form == b.form == COEFF
            assert np.array_equal(a.residues, b.residues)
        else:
            assert np.max(np.abs(rounding_difference(a, b))) <= (merged + 1) // 2


#: Forms a two-polynomial operand can arrive in.  ``extended`` (both
#: polynomials over the key basis) is the result of relinearizing an
#: evaluation-form product; ``c0_extended`` is what a rotation returns, with
#: ``c1`` settled in coefficient or evaluation form.
SETTLED_FORMS = ("coeff", "eval", "mixed")
EXTENDED_FORMS = ("extended", "c0_extended_coeff", "c0_extended_eval")
FORMS = SETTLED_FORMS + EXTENDED_FORMS


def product(scheme, which):
    """The evaluation-form, three-polynomial product of two fresh ciphertexts."""
    a, b = scheme.fresh[which].copy(), scheme.fresh[which + 1].copy()
    return scheme.evaluator.multiply(a, b)


def reshape(cipher, form):
    """``cipher`` with its polynomials in ``form`` (settled on the way, but for
    the ``c0`` a ``c0_extended`` form keeps)."""
    polys = cipher.to_coeff()
    if form.endswith("eval"):
        polys = [p.to_eval() for p in polys]
    elif form == "mixed":
        polys = [p.to_eval() if index % 2 else p for index, p in enumerate(polys)]
    if form.startswith("c0_extended"):
        polys[0] = cipher.polys[0]
    return Ciphertext(polys, cipher.scale, cipher.level)


def operand(scheme, which, form):
    """Relinearized product number ``which`` as a fresh object in ``form``.

    Every form is made from the same extended ciphertext, so they all mean the
    same ciphertext exactly when ``settle`` is exact (pinned against the
    sequential oracle below).
    """
    extended = scheme.evaluator.relinearize(product(scheme, which))
    assert all(p.basis.special and p.form == EVAL for p in extended.polys)
    result = extended if form == "extended" else reshape(extended, form)
    assert result.extended == (form in EXTENDED_FORMS)
    assert [p.basis.special for p in result.polys] == [
        form in EXTENDED_FORMS, form == "extended"
    ]
    return result


class StepwiseCoefficientEvaluator(Evaluator):
    """The scheme before forms: every result is settled and returns to
    coefficient form at once, so every key-switch result is divided alone."""


for _name in (
    "negate add sub add_plain sub_plain multiply multiply_plain relinearize rotate "
    "rescale_to_next mod_switch_to_next"
).split():

    def _stepwise(self, *args, _op=getattr(Evaluator, _name), **kwargs):
        return coefficient_form(_op(self, *args, **kwargs))

    setattr(StepwiseCoefficientEvaluator, _name, _stepwise)


UNARY = {
    "negate": lambda ev, s, a: ev.negate(a),
    "rotate": lambda ev, s, a: ev.rotate(a, STEP),
    "rotate_by_zero": lambda ev, s, a: ev.rotate(a, 0),
    "hoisted_rotations": lambda ev, s, a: ev.add(ev.rotate(a, 1), ev.rotate(a, STEP)),
    "rescale": lambda ev, s, a: ev.rescale_to_next(a),
    "rescale_twice": lambda ev, s, a: ev.rescale_to_next(ev.rescale_to_next(a)),
    "mod_switch": lambda ev, s, a: ev.mod_switch_to_next(a),
    "relinearize_of_two": lambda ev, s, a: ev.relinearize(a),
    "square": lambda ev, s, a: ev.multiply(a, a),
    "add_to_itself": lambda ev, s, a: ev.add(a, a),
    "add_plain": lambda ev, s, a: ev.add_plain(a, s.plain),
    "sub_plain": lambda ev, s, a: ev.sub_plain(a, s.plain),
    "sub_plain_reverse": lambda ev, s, a: ev.sub_plain(a, s.plain, reverse=True),
    "multiply_plain": lambda ev, s, a: ev.multiply_plain(a, s.plain),
    "copy": lambda ev, s, a: a.copy(),
}
BINARY = {
    "add": lambda ev, a, b: ev.add(a, b),
    "sub": lambda ev, a, b: ev.sub(a, b),
    "multiply": lambda ev, a, b: ev.multiply(a, b),
}


def merged_roundings(name, *forms):
    """How many key-switch results an operation sums before one division.

    An extended operand carries one (its relinearization); a rotation adds
    one to ``c0``; a sum of two extended polynomials carries both.
    """
    carried = sum(form in EXTENDED_FORMS for form in forms)
    return {
        "hoisted_rotations": 2 + 2 * carried,
        "rotate": 1 + carried,
        "add_to_itself": 2 * carried,
        "add": carried,
        "sub": carried,
    }.get(name, 1)


class TestEveryOperationInEveryForm:
    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("name", sorted(UNARY))
    def test_unary(self, scheme, name, form):
        op, ev = UNARY[name], scheme.evaluator
        want = op(scheme.stepwise, scheme, operand(scheme, 0, "coeff"))
        a = operand(scheme, 0, form)
        assert_same_ciphertext(op(ev, scheme, a), want, merged_roundings(name, form))
        # Whatever the operation rebound, the operand still means what it meant.
        assert_same_ciphertext(a, operand(scheme, 0, "coeff"))

    @pytest.mark.parametrize("form_b", FORMS)
    @pytest.mark.parametrize("form_a", FORMS)
    @pytest.mark.parametrize("name", sorted(BINARY))
    def test_binary(self, scheme, name, form_a, form_b):
        op = BINARY[name]
        want = op(scheme.stepwise, operand(scheme, 0, "coeff"), operand(scheme, 1, "coeff"))
        a, b = operand(scheme, 0, form_a), operand(scheme, 1, form_b)
        got = op(scheme.evaluator, a, b)
        assert_same_ciphertext(got, want, merged_roundings(name, form_a, form_b))
        assert_same_ciphertext(a, operand(scheme, 0, "coeff"))
        assert_same_ciphertext(b, operand(scheme, 1, "coeff"))
        if name != "multiply":
            # A sum is extended wherever either operand was; a product never is.
            extended = [p.basis.special or q.basis.special for p, q in zip(a.polys, b.polys)]
            assert [p.basis.special for p in got.polys] == extended

    def test_what_keeps_a_polynomial_extended_and_what_settles_it(self, scheme):
        ev = scheme.evaluator
        for form in EXTENDED_FORMS:
            extended = [p.basis.special for p in operand(scheme, 0, form).polys]
            keeps = dict.fromkeys(
                ("negate", "add_to_itself", "copy", "rotate_by_zero", "relinearize_of_two"),
                extended,
            )
            keeps.update(rotate=[True, False], hoisted_rotations=[True, False])
            for name, op in UNARY.items():
                a = operand(scheme, 0, form)
                result = op(ev, scheme, a)
                assert [p.basis.special for p in result.polys[:2]] == keeps.get(
                    name, [False, False]
                ), (name, form)
                if name in ("rotate", "hoisted_rotations"):
                    # A rotation settles (and rebinds) only the c1 it decomposes.
                    assert [p.basis.special for p in a.polys] == [True, False]

    def test_a_sum_of_extended_operands_rescales_like_sequential_divisions(self, scheme):
        """``add`` keeps both polynomials extended, and the rescale that follows
        divides ``P * q`` out of the *sum* — bit for bit two divisions in a row."""
        ev = scheme.evaluator
        a, b = operand(scheme, 0, "extended"), operand(scheme, 1, "extended")
        total = ev.add(a, b)
        assert all(p.basis.special and p.form == EVAL for p in total.polys)
        assert a.extended and b.extended  # nothing was settled on the way
        rescaled = ev.rescale_to_next(total)
        assert not rescaled.extended and rescaled.level == 1
        for got, p, q in zip(rescaled.polys, a.polys, b.polys):
            want = divide_and_round_sequential(p.add(q), 2)
            assert got.basis == want.basis
            assert np.array_equal(got.to_coeff().residues, want.residues)
        # A rotation's result rescales per polynomial: c0 by P * q, c1 by q.
        rotated = ev.rotate(operand(scheme, 0, "coeff"), STEP)
        rescaled = ev.rescale_to_next(rotated)
        for got, poly, count in zip(rescaled.polys, rotated.polys, (2, 1)):
            want = divide_and_round_sequential(poly, count)
            assert np.array_equal(got.to_coeff().residues, want.residues)

    def test_a_lift_never_rebinds_and_is_remembered(self, scheme):
        ev = scheme.evaluator
        levels = scheme.context.max_level  # L data primes at level 0, K = L + 1
        for form, lift_rows in (("coeff", levels), ("eval", 0), ("mixed", levels)):
            ev.rotate(operand(scheme, 1, form), 1), ev.rotate(operand(scheme, 1, form), STEP)
            a = operand(scheme, 0, form)
            polys = list(a.polys)
            c1_rows = levels + 1 if polys[1].form == COEFF else 1 + levels
            digit_rows = levels * (levels + 1) if polys[1].form == COEFF else levels + levels**2
            before = ntt_rows()
            rotated = ev.rotate(a, 1)
            assert ntt_rows() - before == digit_rows + lift_rows + c1_rows
            before = ntt_rows()
            again = ev.rotate(a, STEP)
            assert ntt_rows() - before == c1_rows  # no digit row, no lift row
            before = ntt_rows()
            total = ev.add(a, rotated)  # acc + (acc << k): the lift is remembered
            total = ev.sub(ev.add(again, total), ev.negate(a))  # this one is not (a new c0)
            assert ntt_rows() - before == lift_rows
            assert all(now is then for now, then in zip(a.polys, polys))
            assert [p.basis.special for p in total.polys] == [True, False]
            want = scheme.stepwise.add(
                scheme.stepwise.add(scheme.stepwise.rotate(a, STEP), a),
                scheme.stepwise.add(scheme.stepwise.rotate(a, 1), a),
            )
            assert_same_ciphertext(total, want, merged=2)

    @pytest.mark.parametrize("form", SETTLED_FORMS)
    def test_three_polynomial_operands(self, scheme, form):
        """Relinearize (against the coefficient-domain oracle), and what else takes size 3."""
        ev = scheme.evaluator
        base = coefficient_form(product(scheme, 0))
        oracle = scheme.reference.relinearize(base)
        assert all(p.form == COEFF for p in oracle.polys)
        relinearized = ev.relinearize(reshape(product(scheme, 0), form))
        assert relinearized.extended == (form == "eval")
        assert_same_ciphertext(relinearized, oracle)
        extended_c0 = "c0_extended_" + form.replace("mixed", "eval")
        for op in (
            lambda ev, a, form: ev.add(a, operand(scheme, 0, form)),
            lambda ev, a, form: ev.add(operand(scheme, 0, form), a),
            lambda ev, a, form: ev.multiply_plain(a, scheme.plain),
            lambda ev, a, form: ev.rescale_to_next(a),
            lambda ev, a, form: ev.negate(a),
            # A three-polynomial sum with extended polynomials, and what reads it next.
            lambda ev, a, form: ev.add(a, operand(scheme, 0, extended_c0)),
            lambda ev, a, form: ev.relinearize(ev.add(operand(scheme, 0, extended_c0), a)),
            lambda ev, a, form: ev.rescale_to_next(ev.add(a, operand(scheme, 0, "extended"))),
        ):
            got = op(ev, reshape(product(scheme, 0), form), form)
            assert_same_ciphertext(got, op(scheme.stepwise, base, "coeff"))
        decrypted = scheme.decryptor.decrypt_poly(reshape(product(scheme, 0), form))
        want = scheme.decryptor.decrypt_poly(base)
        assert decrypted.form == want.form == COEFF
        assert np.array_equal(decrypted.residues, want.residues)

    @pytest.mark.parametrize("form", FORMS)
    def test_decrypt(self, scheme, form):
        want = scheme.decryptor.decrypt(operand(scheme, 0, "coeff"))
        assert np.array_equal(scheme.decryptor.decrypt(operand(scheme, 0, form)), want)
        expected = scheme.values[0] * scheme.values[1]
        assert np.max(np.abs(np.real(want) - expected)) < 1e-2

    def test_plaintext_in_evaluation_form(self, scheme):
        ev, plain = scheme.evaluator, scheme.plain
        converted = type(plain)(plain.poly.to_eval(), plain.scale, plain.level)
        for form in FORMS:
            for op in (ev.add_plain, ev.sub_plain, ev.multiply_plain):
                want = op(operand(scheme, 0, "coeff"), plain)
                assert_same_ciphertext(op(operand(scheme, 0, form), converted), want)

    @pytest.mark.parametrize("evaluator", ["evaluator", "reference"])
    def test_a_whole_program_against_coefficient_form_after_every_step(self, scheme, evaluator):
        """x^4 + x^3 + x^2 + x plus a rotation group: the form-following run
        is the step-by-step coefficient run (and the oracle's), bit for bit
        but for the one rounding the summed rotations merge."""

        def run(ev, step):
            x = scheme.fresh[0].copy()
            x2 = step(ev.rescale_to_next(step(ev.relinearize(step(ev.multiply(x, x))))))
            x1 = step(ev.mod_switch_to_next(x))
            x3 = step(ev.rescale_to_next(step(ev.relinearize(step(ev.multiply(x2, x1))))))
            x4 = step(ev.rescale_to_next(step(ev.relinearize(step(ev.multiply(x2, x2))))))
            total = x4
            for term in (x3, x2, x1):
                if term.level < total.level:
                    term = step(ev.mod_switch_to_next(term))
                # Scales differ by a factor prime / 2^26: the sum is exact
                # arithmetic either way, which is all this test compares.
                term.scale = total.scale
                total = step(ev.add(total, term))
            return step(ev.add(step(ev.rotate(x3, 1)), step(ev.rotate(x3, STEP)))), x4, total

        following = run(scheme.evaluator, lambda cipher: cipher)
        stepwise = run(getattr(scheme, evaluator), coefficient_form)
        for got, want in zip(following[1:], stepwise[1:]):
            assert_same_ciphertext(got, want)
        if evaluator == "evaluator":
            # The two rotations' key-switch results are divided as one sum:
            # c1 is the step-by-step one, c0 is within one rounding of it.
            assert following[0].polys[0].basis.special
            got, want = following[0].to_coeff(), stepwise[0].to_coeff()
            assert np.array_equal(got[1].residues, want[1].residues)
            assert np.max(np.abs(rounding_difference(got[0], want[0]))) == 1
        # (The oracle's rotation decomposes after the automorphism, a different
        # valid decomposition: its rotations agree at noise level only.)
        decrypt = scheme.decryptor.decrypt
        assert np.max(np.abs(decrypt(following[0]) - decrypt(stepwise[0]))) < 1e-2
        rotated, x4, _ = following
        x = scheme.values[0]
        assert np.max(np.abs(np.real(scheme.decryptor.decrypt(x4)) - x**4)) < 1e-2
        want = np.roll(x**3, -1) + np.roll(x**3, -STEP)
        assert np.max(np.abs(np.real(scheme.decryptor.decrypt(rotated)) - want)) < 1e-2

    def test_a_forgotten_settle_fails_loudly(self, scheme):
        extended = operand(scheme, 0, "extended")
        settled = operand(scheme, 1, "eval")
        with pytest.raises(Exception, match="different RNS bases"):
            extended.polys[0].add(settled.polys[0])


def boundary_residues(rng, basis):
    """Random residues with every rounding boundary of every prime mixed in."""
    column = basis.primes_column
    residues = rng.integers(0, column, size=(len(basis), basis.poly_modulus_degree))
    edges = np.concatenate([np.zeros_like(column), column - 1, column // 2, column // 2 + 1], 1)
    width = min(edges.shape[1], residues.shape[1])
    residues[:, :width] = edges[:, :width]
    return RnsPolynomial(basis, residues.astype(np.int64))


class TestDivideAndRoundLast:
    """Both forms, one or two primes at once, against the sequential oracle."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([8, 64, 1024]),
        bits=st.lists(st.integers(20, 30), min_size=2, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    # The Harris chain: one 20-bit prime among 28-bit ones, 30-bit special prime.
    @example(n=64, bits=[28, 28, 20, 28, 30], seed=0)
    @example(n=8, bits=[30, 30, 30], seed=1)
    @example(n=8, bits=[20, 30], seed=2)
    def test_matches_sequential_divisions(self, n, bits, seed):
        basis = RnsBasis(generate_ntt_primes(bits, n), n)
        poly = boundary_residues(np.random.default_rng(seed), basis)
        for count in (1, 2):
            if count >= len(basis):
                with pytest.raises(Exception, match="only prime"):
                    poly.divide_and_round_last(count)
                continue
            want = divide_and_round_sequential(poly, count)
            for operand_ in (poly, poly.to_eval()):
                got = operand_.divide_and_round_last(count)
                assert got.form == operand_.form and got.basis == want.basis
                assert np.array_equal(got.to_coeff().residues, want.residues)

    def test_more_than_two_primes_at_once_is_refused(self):
        basis = RnsBasis(generate_ntt_primes([25] * 5, 8), 8)
        with pytest.raises(Exception, match="one or two"):
            RnsPolynomial.zero(basis).divide_and_round_last(3)

    def test_the_trailing_row_kernels_are_views_of_the_key_basis_tables(self, monkeypatch):
        # Every kernel inspected here is built here: a kernel some earlier test
        # built standalone over the same trailing primes would be handed back
        # by the process-wide cache and owns its tables.
        monkeypatch.setattr(ntt, "_KERNEL_CACHE", {})
        context = CkksContext(64, [25, 25, 25, 30], enforce_security=False)
        for level in range(context.max_level):
            key_kernel = context.key_basis(level).kernel
            count = len(key_kernel.primes)
            for start in range(count):
                view = key_kernel.rows(start, count)
                assert view.primes == key_kernel.primes[start:]
                assert view is key_kernel.rows(start, count)
                if view is not key_kernel:
                    assert view._forward.base is not None
                rng = np.random.default_rng(start)
                rows = rng.integers(0, 1000, size=(2, count, 64), dtype=np.int64)
                assert np.array_equal(
                    view.forward(rows[:, start:]), key_kernel.forward(rows)[:, start:]
                )
                evaluations = key_kernel.forward(rows)
                assert np.array_equal(view.inverse(evaluations[:, start:]), rows[:, start:])


# -- exact NTT row counts ---------------------------------------------------------------
OPTIONS = CompilerOptions(policy="eva", max_rescale_bits=25.0, security_level=128)


def relin_poly_program():
    program = EvaProgram("relin_poly", vec_size=2048, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        x2 = x * x
        output("y", x2 * x2 + x2 * x + x2 + x, 25)
    return program


def rotate_sum_program():
    program = EvaProgram("rotate_sum", vec_size=1024, default_scale=25)
    with program:
        acc = input_encrypted("x", 25)
        step = 1
        while step < 1024:
            acc = acc + (acc << step)
            step *= 2
        output("y", acc, 25)
    return program


def batch_poly_program():
    program = EvaProgram("batch_poly", vec_size=64, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", x * x + x, 25)
    return program


def steady_state_rows(program, chain, whole_request):
    """``{op: rows}`` of one request after a warm-up (key forms are cached by then)."""
    compilation = CompiledProgram.compile(program.graph, options=OPTIONS)
    assert compilation.parameters.coeff_modulus_bits == chain[1]
    assert compilation.parameters.poly_modulus_degree == chain[0]
    backend = CkksBackend(seed=3)
    engine = EvaluationEngine(compilation, backend=backend)
    context = backend.create_context(compilation.parameters)
    context.generate_keys()
    values = np.random.default_rng(1).uniform(-1.0, 1.0, program.graph.vec_size)
    for _ in range(2):
        ciphers, plain = engine.encrypt_inputs(context, {"x": values})
        if not whole_request:
            context.drain_ntt_rows()
        handles = engine.evaluate(context, ciphers, plain, retire_inputs=True)
        if whole_request:
            answer = engine.decrypt_outputs(context, handles)["y"]
        else:
            wire = context.encode_cipher(handles["y"])
            answer = context.decrypt(context.decode_cipher(json.loads(json.dumps(wire))))
        rows = context.drain_ntt_rows()
    reference = execute_reference(program.graph, {"x": values})["y"]
    assert np.allclose(answer[: len(reference)], reference, atol=0.1)
    return rows


class TestExactNttRows:
    def test_multiply_chain_82_rows(self):
        rows = steady_state_rows(relin_poly_program(), (8192, [25] * 5), whole_request=False)
        # 126 before forms: multiply 56 (it transformed back), relinearize 70.
        assert rows.pop("decrypt") == 4
        assert rows == {"multiply": 8, "relinearize": 44, "rescale": 26, "export": 4}

    def test_rotation_chain_95_rows(self):
        rows = steady_state_rows(rotate_sum_program(), (4096, [25] * 3), whole_request=False)
        assert rows.pop("decrypt") == 4
        # 120 when every rotation divided both halves: (L + 1)(L + 2) = 12 each.
        # Now L*K digit rows forward and K back for c1, L more to lift the
        # fresh c0 once — 11 + 9 * 9 — and c0's one owed division at export (K).
        assert rows == {"rotate": 92, "export": 3}

    def test_server_held_keys_34_rows(self):
        rows = steady_state_rows(batch_poly_program(), (4096, [25] * 4), whole_request=True)
        # 48 before forms (multiply 15, relinearize 20, decrypt 4), 37 before
        # symmetric encryption (3L = 9 rows for the public-key path).
        assert rows == {"encrypt": 6, "multiply": 6, "relinearize": 12, "rescale": 8, "decrypt": 2}

    @pytest.mark.parametrize(
        "program, chain, keygen, encrypt, first, steady",
        [
            # 150 / 6 / 240 / 120 before seeds: each of 11 switching keys paid 6
            # forward rows for a and the server 12 per key form (now 6, b only);
            # 180 / 120 while every rotation divided both halves.
            (rotate_sum_program, (4096, [25] * 3), 76, 4, 155, 95),
            # 72 / 12 / 146 / 82: one relinearization key, whose level-1 form is
            # a selection of the level-0 form (20 rows), not 24 rows more.
            (relin_poly_program, (8192, [25] * 5), 38, 8, 102, 82),
        ],
        ids=["rotate_sum", "relin_poly"],
    )
    def test_a_new_client_row_by_row(self, program, chain, keygen, encrypt, first, steady):
        """Key generation, the server's first request (cold key forms), a
        steady one — evaluation and the reply's export — and encryption: a kit
        on one side, an evaluation context imported from its ``{seed, b}``
        export on the other."""
        program = program()
        compiled = CompiledProgram.compile(program.graph, options=OPTIONS)
        parameters = compiled.parameters
        assert (parameters.poly_modulus_degree, parameters.coeff_modulus_bits) == chain
        backend = CkksBackend(seed=3)
        kit = ClientKit(compiled, backend=backend)
        assert kit.context.drain_ntt_rows() == {"keygen": keygen}
        assert [(op, count) for op, (count, _) in kit.context.drain_op_times().items()] == [("keygen", 1)]
        keys = json.loads(json.dumps(kit.export_evaluation_keys()))
        server = backend.create_evaluation_context(parameters, keys)
        assert not kit.context.drain_ntt_rows() and not server.drain_ntt_rows()  # export, import: none
        engine = EvaluationEngine(compiled, backend=backend)
        values = np.random.default_rng(1).uniform(-1.0, 1.0, program.graph.vec_size)
        for expected in (first, steady):
            bundle = kit.encrypt_inputs({"x": values})
            wire = json.loads(json.dumps(kit.bundle_to_wire(bundle)))
            assert kit.context.drain_ntt_rows() == {"encrypt": encrypt}
            ciphers = {name: server.decode_cipher(c) for name, c in wire["ciphertexts"].items()}
            handles = engine.evaluate(server, ciphers, {}, retire_inputs=True)
            reply = json.loads(json.dumps(server.encode_cipher(handles["y"])))
            assert sum(server.drain_ntt_rows().values()) == expected
        reference = execute_reference(program.graph, {"x": values})["y"]
        answer = kit.context.decrypt(kit.context.decode_cipher(reply))
        assert np.allclose(answer[: len(reference)], reference, atol=0.1)

    def test_hoisted_rotations_of_an_evaluation_form_ciphertext(self, scheme):
        """L + L^2 digit rows once and 1 + L per step (c1 divided in evaluation
        form; c0 is lifted from evaluation form for nothing) — the cache is
        keyed on the ciphertext's own c1, so the conversion cannot make it miss."""
        ev, count = scheme.evaluator, 3
        a = operand(scheme, 0, "eval")
        ev.rotate(a, 1), ev.rotate(operand(scheme, 1, "eval"), STEP)  # warm both keys
        a = operand(scheme, 0, "eval")
        before = ntt_rows()
        ev.rotate(a, 1)
        assert ntt_rows() - before == count + count**2 + (1 + count)
        for step in (STEP, 1, STEP):
            before = ntt_rows()
            ev.rotate(a, step)
            assert ntt_rows() - before == 1 + count
        assert any(entry[0] is a.polys[1] for entry in ev._hoist_cache.values())

    def test_a_rotation_feeding_a_plain_multiply_pays_in_the_settle(self):
        """Sobel 64x64 at the compiler-chosen N = 16384, 8 x 28-bit chain: every
        rotation feeds ``multiply_plain``, which needs c0's value at once — so
        the rows a rotation no longer spends dividing c0 (K each) are spent
        settling it there (1 + L), and the totals are the ones measured before
        c0 waited: 912 steady, 1192 with cold key forms."""
        program = build_sobel_program(image_size=64, scale=28.0)
        options = CompilerOptions(max_rescale_bits=28)
        compilation = CompiledProgram.compile(program.graph, options=options)
        assert compilation.parameters.poly_modulus_degree == 16384
        assert compilation.parameters.coeff_modulus_bits == [28] * 8
        backend = CkksBackend(seed=3)
        engine = EvaluationEngine(compilation, backend=backend)
        context = backend.create_context(compilation.parameters)
        context.generate_keys()
        inputs = {"image": random_image(64, seed=1).reshape(-1)}
        totals = []
        for _ in range(2):
            ciphers, plain = engine.encrypt_inputs(context, inputs)
            context.drain_ntt_rows()
            handles = engine.evaluate(context, ciphers, plain, retire_inputs=True)
            wire = context.encode_cipher(handles["edges"])
            totals.append(context.drain_ntt_rows())
        cold, steady = totals
        assert sum(cold.values()) == 1192 and sum(steady.values()) == 912
        # Three hoisted groups of evaluation-form ciphertexts, 8 rotations:
        # L + L^2 digit rows per group and 1 + L per step for c1 (296 when
        # each step divided c0 as well) ...
        assert steady["rotate"] == 3 * (7 + 7 * 7) + 8 * (1 + 7)
        # ... and 8 settles of an extended c0, 1 + L each, at the multiplications.
        assert steady["multiply_plain"] == 152 + 8 * (1 + 7)
        expected = execute_reference(program.graph, inputs)["edges"]
        answer = context.decrypt(context.decode_cipher(wire))
        assert np.max(np.abs(answer[: len(expected)] - expected)) < 2e-2

    def test_the_offline_profiler_reports_the_live_counters_rows(self):
        """``repro.profiling`` reads the same ``drain_ntt_rows()`` the server
        exports as ``ckks.ntt.rows``: the replay of a kernel change is one command."""
        report = profile_program("sum", repeats=2, top=1)
        rotate = report["ops"]["rotate"]
        assert (rotate["count"], rotate["ntt_rows"]) == (20, 2 * 92) and rotate["seconds"] > 0
        assert report["ops"]["add"]["ntt_rows"] == 0  # the lift of acc is remembered
        # The client decrypts the live handle: c0's owed division (K) + c1 there and back (2L).
        assert report["ops"]["decrypt"]["ntt_rows"] == 3 + 4
        assert report["ntt_rows"] == 2 * 92 + 7

    def test_rows_are_counted_per_thread(self):
        kernel = get_ntt_kernel(generate_ntt_primes([25, 25], 64), 64)
        seen = {}

        def work(name, batch):
            before = ntt_rows()
            kernel.inverse(kernel.forward(np.zeros((batch, 2, 64), dtype=np.int64)))
            seen[name] = ntt_rows() - before

        threads = [threading.Thread(target=work, args=(i, i + 1)) for i in range(4)]
        before = ntt_rows()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        assert seen == {i: 4 * (i + 1) for i in range(4)} and ntt_rows() == before

    def test_the_server_exports_ckks_ntt_rows(self):
        with EvaServer(backend=CkksBackend(seed=3), workers=1, batch_window=0.0) as server:
            server.register("prog", batch_poly_program(), options=OPTIONS)
            for _ in range(3):
                server.submit("prog", {"x": [0.5, -0.25]}, client_id="carol").result(60)
            value = server.telemetry.registry.counter_value
            assert value("ckks.ntt.rows", op="multiply", program="prog") == 3 * 6
            assert value("ckks.ntt.rows", op="rescale", program="prog") == 3 * 8
            # Harvested after each evaluation, so the third decrypt is still
            # pending; the first also cached s in evaluation form (2 rows).
            assert value("ckks.ntt.rows", op="decrypt", program="prog") == 2 + 2 * 2
            assert value("ckks.op.count", op="multiply", program="prog") == 3


# -- the wire --------------------------------------------------------------------------
class TestFormsStayOffTheWire:
    def test_every_form_encodes_to_the_coefficient_bytes(self):
        compilation = CompiledProgram.compile(batch_poly_program().graph, options=OPTIONS)
        backend = CkksBackend(seed=9)
        context = backend.create_context(compilation.parameters)
        context.generate_keys()
        x = context.encrypt(np.linspace(-1, 1, 64), 25)
        relinearized = context.relinearize(context.multiply(x, x))
        assert relinearized.extended and x.polys[0].form == EVAL
        want = context.encode_cipher(coefficient_form(relinearized.copy()))
        assert context.encode_cipher(relinearized.copy()) == want  # extended
        assert context.encode_cipher(reshape(relinearized.copy(), "eval")) == want
        assert context.encode_cipher(reshape(relinearized.copy(), "mixed")) == want
        for form in ("c0_extended_coeff", "c0_extended_eval"):
            assert context.encode_cipher(reshape(relinearized.copy(), form)) == want
        assert json.dumps(context.encode_cipher(relinearized)) == json.dumps(want)
        assert relinearized.extended  # an export keeps nothing: the handle is as it was
        # The operand the multiplication converted still exports its original bytes.
        fresh = backend.create_context(compilation.parameters)
        fresh.generate_keys()
        assert context.encode_cipher(x) == fresh.encode_cipher(
            fresh.encrypt(np.linspace(-1, 1, 64), 25)
        )
        decoded = context.decode_cipher(want)
        assert all(p.form == COEFF for p in decoded.polys) and not decoded.extended

    def test_the_key_basis_stays_off_the_wire(self):
        """A rotation's reply is written over the data basis (its owed division
        is the export's), and rows over the key basis are refused on the way in."""
        compiled = CompiledProgram.compile(rotate_sum_program().graph, options=OPTIONS)
        context = CkksBackend(seed=9).create_context(compiled.parameters)
        context.generate_keys()
        x = context.encrypt(np.linspace(-1, 1, 1024), 25)
        rotated = context.rotate(context.decode_cipher(context.encode_cipher(x)), 1)
        assert [p.basis.special for p in rotated.polys] == [True, False]
        data_rows, degree = len(context.context.data_basis(0)), context.context.poly_modulus_degree
        context.drain_ntt_rows()
        wire = context.encode_cipher(rotated)
        assert context.drain_ntt_rows() == {"export": data_rows + 1}
        assert [unpack_residues(rows).shape for rows in wire["polys"]] == [(data_rows, degree)] * 2
        assert rotated.polys[0].basis.special  # not settled by the export
        want = np.roll(np.linspace(-1, 1, 1024), -1)
        assert np.allclose(context.decrypt(context.decode_cipher(wire))[:1024], want, atol=1e-2)
        key_rows = pack_residues(rotated.polys[0].residues)
        over_key_basis = dict(wire, polys=[key_rows, wire["polys"][1]])
        with pytest.raises(SerializationError, match="shape"):
            context.decode_cipher(over_key_basis)


# -- threads ---------------------------------------------------------------------------
class TestSharedHandlesAcrossThreads:
    def test_concurrent_multiplies_of_one_handle_agree_with_the_serial_answer(self, scheme):
        """The form switch and the settle rebind ``polys`` and never edit
        ``residues``, and a lift rebinds nothing, so racing multiplications of
        one coefficient-form handle, racing settles of one extended handle,
        racing sums of two more, and one handle rotated (lifted), added and
        exported at once all compute the serial answer."""
        ev = scheme.evaluator
        serial = coefficient_form(ev.multiply(scheme.fresh[0].copy(), scheme.fresh[1].copy()))
        a, b = operand(scheme, 0, "extended"), operand(scheme, 1, "extended")
        settled = coefficient_form(ev.add_plain(operand(scheme, 0, "coeff"), scheme.plain))
        summed = coefficient_form(ev.rescale_to_next(ev.sub(a, b)))
        z = scheme.fresh[2].copy()
        reduced = coefficient_form(ev.add(z, ev.add(ev.rotate(z, 1), ev.rotate(z, STEP))))
        exported = [p.residues for p in z.to_coeff()]
        workers, rounds = 8, 6
        failures = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(rounds):
                x, y, z = (scheme.fresh[index].copy() for index in range(3))
                a, b = operand(scheme, 0, "extended"), operand(scheme, 1, "extended")
                c = a.copy()
                barrier = threading.Barrier(workers)

                def work():
                    try:
                        barrier.wait(30)
                        assert_same_ciphertext(ev.multiply(x, y), serial)
                        assert_same_ciphertext(ev.add_plain(c, scheme.plain), settled)
                        assert_same_ciphertext(ev.rescale_to_next(ev.sub(a, b)), summed)
                        total = ev.add(z, ev.add(ev.rotate(z, 1), ev.rotate(z, STEP)))
                        assert_same_ciphertext(total, reduced)
                        for poly, want in zip(z.to_coeff(), exported):
                            assert np.array_equal(poly.residues, want)
                    except BaseException as exc:  # reported by the main thread
                        failures.append(exc)

                threads = [threading.Thread(target=work) for _ in range(workers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                    assert not thread.is_alive()
                assert all(p.form == EVAL for p in x.polys + y.polys)
                assert not c.extended  # add_plain settled it, once or eight times over
                assert a.extended and b.extended  # a sum settles nothing, a lift rebinds nothing
                assert all(p.form == COEFF and not p.basis.special for p in z.polys)
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures[0]

    def test_two_executor_threads_share_an_input_handle(self):
        program = EvaProgram("shared", vec_size=64, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("y", x * x + (x << 1) * x, 25)
        compilation = CompiledProgram.compile(program.graph, options=OPTIONS)
        backend = CkksBackend(seed=4)
        context = backend.create_context(compilation.parameters)
        context.generate_keys()
        values = np.linspace(-1, 1, 64)
        engine = EvaluationEngine(compilation, backend=backend)
        ciphers, plain = engine.encrypt_inputs(context, {"x": values})
        wires = {name: context.encode_cipher(handle) for name, handle in ciphers.items()}
        answers = []
        for threads in (1, 2, 2, 2):
            engine = EvaluationEngine(compilation, backend=backend, threads=threads)
            ciphers = {name: context.decode_cipher(wire) for name, wire in wires.items()}
            handles = engine.evaluate(context, ciphers, plain, retire_inputs=True)
            answers.append(context.encode_cipher(handles["y"]))
        assert all(answer == answers[0] for answer in answers[1:])


# -- whole programs ------------------------------------------------------------------------
class TestRealBackendAgainstTheReference:
    """Plaintext multiplies, hoisted rotation groups of evaluation-form
    ciphertexts, a reduction tree and relinearization chains, wire to wire,
    against the step-by-step coefficient run of the same request.

    Per reply: ``c1`` is byte for byte the step-by-step one; ``c0`` differs
    from it by one small integer polynomial, bounded by half the key-switch
    results the program sums before a division (none: byte-identical); and
    the decrypted error against the reference is no larger than the
    step-by-step run's.
    """

    @staticmethod
    def _run(program, options, inputs):
        """Decoded replies and decrypted outputs of (form-following, step-by-step)."""
        compiled = CompiledProgram.compile(program, options=options)
        backend = CkksBackend(seed=21)
        client = ClientKit(compiled, backend=backend, client_id="forms")
        wire = json.loads(json.dumps(client.bundle_to_wire(client.encrypt_inputs(inputs))))
        server = ServerRuntime(compiled, backend=backend)
        context = server.attach_client("forms", client.evaluation_context())
        keys = context.evaluator.relin_key, context.evaluator.galois_keys
        replies, outputs = [], []
        for evaluator in (Evaluator, StepwiseCoefficientEvaluator):
            context.evaluator = evaluator(context.context, *keys)
            reply = server.evaluate_wire(wire, client_id="forms")
            decoded = client.outputs_from_wire(reply)
            replies.append(decoded.ciphertexts)
            outputs.append(client.decrypt_outputs(decoded))
        return replies, outputs

    def _assert_the_relation(self, program, options, inputs, merged, atol):
        (following, stepwise), (outputs, stepwise_outputs) = self._run(program, options, inputs)
        for key, want in stepwise.items():
            (c0, c1), (want_c0, want_c1) = following[key].to_coeff(), want.to_coeff()
            assert np.array_equal(c1.residues, want_c1.residues)
            difference = rounding_difference(c0, want_c0)
            assert np.max(np.abs(difference)) <= merged // 2
            assert (merged == 0) == (not difference.any())
            if merged:
                # Each merged rounding is uniform on a unit interval.
                assert difference.std() == pytest.approx(np.sqrt(merged / 12), rel=0.1)
        for key, want in execute_reference(program.graph, inputs).items():
            error = np.max(np.abs(outputs[key][: len(want)] - want))
            stepwise_error = np.max(np.abs(stepwise_outputs[key][: len(want)] - want))
            assert error <= stepwise_error + 1e-6 and stepwise_error < atol, key

    @pytest.mark.parametrize("name, merged", [("sum", 1023), ("poly_relin", 0)])
    def test_profiled_programs(self, name, merged):
        self._assert_the_relation(*_profile_spec(name), merged, atol=0.05)

    @pytest.mark.parametrize("name", ["sobel_lanes", "harris_lanes"])
    def test_profiled_lane_programs(self, name):
        """The two image kernels *multiply* sums of rotations, so a merged
        rounding ``d`` in one factor's ``c0`` becomes ``d`` times the other
        factor in the product — no longer small, in both polynomials — while
        decrypting to ``d`` times the other factor's *message*.  They are
        held to that: the two runs decrypt alike, to well within the distance
        either keeps from the reference (``repro.profiling`` compiles them at
        a 20-bit scale where the real backend decrypts to noise, before forms
        too: an error of ~100, and the runs 0.05 / 0.3 apart)."""
        program, options, inputs = _profile_spec(name)
        assert options.lane_width
        _, (outputs, stepwise_outputs) = self._run(program, options, inputs)
        for key, want in execute_reference(program.graph, inputs).items():
            stepwise_error = np.max(np.abs(stepwise_outputs[key][: len(want)] - want))
            apart = np.max(np.abs(outputs[key] - stepwise_outputs[key]))
            assert apart < 0.01 * stepwise_error, key

    @pytest.mark.parametrize(
        "build, merged",
        [(relin_poly_program, 0), (rotate_sum_program, 1023), (batch_poly_program, 0)],
    )
    def test_served_programs(self, build, merged):
        program = build()
        inputs = {"x": np.random.default_rng(5).uniform(-1.0, 1.0, program.graph.vec_size)}
        self._assert_the_relation(program, OPTIONS, inputs, merged, atol=0.1)
