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
    EvaServer,
    execute_reference,
    input_encrypted,
    output,
)
from repro.apps import build_harris_program, build_sobel_program, random_image
from repro.backend import CkksBackend
from repro.ckks import Ciphertext, CkksContext, Decryptor, Encryptor, Evaluator, KeyGenerator
from repro.ckks import ntt
from repro.ckks.keys import SeededUniform
from repro.ckks.ntt import get_ntt_kernel, ntt_rows
from repro.ckks.numth import generate_ntt_primes
from repro.ckks.rns import COEFF, EVAL, RnsBasis, RnsPolynomial
from repro.core.analysis import compute_levels
from repro.core.analysis.parameters import modup_rows
from repro.core.executor import EvaluationEngine
from repro.core.serialization.packing import pack_residues, unpack_residues
from repro.core.types import Op
from repro.errors import ParameterError, SerializationError
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
    """Both forms, any number of primes at once, against the sequential oracle."""

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
        for count in range(1, len(basis) + 1):
            if count >= len(basis):
                with pytest.raises(Exception, match="one prime must remain"):
                    poly.divide_and_round_last(count)
                continue
            want = divide_and_round_sequential(poly, count)
            for operand_ in (poly, poly.to_eval()):
                got = operand_.divide_and_round_last(count)
                assert got.form == operand_.form and got.basis == want.basis
                assert np.array_equal(got.to_coeff().residues, want.residues)

    def test_any_count_short_of_every_prime_divides(self):
        """Any count up to all primes but one divides (the special primes and
        the next prime of a grouped chain go at once); all of them, or none,
        is refused."""
        basis = RnsBasis(generate_ntt_primes([25] * 5, 8), 8)
        assert RnsPolynomial.zero(basis).divide_and_round_last(4).basis == basis.drop_last(4)
        for count in (0, 5):
            with pytest.raises(Exception, match="one prime must remain"):
                RnsPolynomial.zero(basis).divide_and_round_last(count)

    def test_the_trailing_row_kernels_are_views_of_the_key_basis_tables(self, monkeypatch):
        # Every kernel inspected here is built here: a kernel some earlier test
        # built standalone over the same trailing primes would be handed back
        # by the process-wide cache and owns its tables.
        for special in (1, 2):
            monkeypatch.setattr(ntt, "_KERNEL_CACHE", {})
            context = CkksContext(
                64, [25, 25, 25] + [30] * special, enforce_security=False, special_primes=special
            )
            top = context.key_basis(0).kernel
            for level in range(context.max_level):
                key_kernel = context.key_basis(level).kernel
                count = len(key_kernel.primes)
                for start in range(count):
                    view = key_kernel.rows(start, count)
                    assert view.primes == key_kernel.primes[start:]
                    assert view is key_kernel.rows(start, count)
                    # Whatever the level, every run transforms on the level-0
                    # tables: the level-0 kernel itself or row views of them.
                    for run in view.runs:
                        assert run is top or (
                            run._forward.base is top._forward
                            and run._inverse.base is top._inverse
                        )
                    rng = np.random.default_rng(start)
                    rows = rng.integers(0, 1000, size=(2, count, 64), dtype=np.int64)
                    assert np.array_equal(
                        view.forward(rows[:, start:]), key_kernel.forward(rows)[:, start:]
                    )
                    evaluations = key_kernel.forward(rows)
                    assert np.array_equal(view.inverse(evaluations[:, start:]), rows[:, start:])


def owned_tables():
    """``{kernel: bytes}`` over the cached kernels that own NTT tables (views and joins own none)."""
    owned = {}
    for kernel in ntt._KERNEL_CACHE.values():
        arrays = [value for value in vars(kernel).values() if isinstance(value, np.ndarray)]
        size = sum(array.nbytes for array in arrays if array.base is None)
        if size:
            owned[kernel] = size
    return owned


class TestJoinedKernels:
    """A join of row views is the kernel over its primes, on tables it does not own."""

    PRIMES = tuple(generate_ntt_primes([25, 26, 27, 28, 30], 64))

    def joined(self):
        top = get_ntt_kernel(self.PRIMES, 64)
        return top.rows(0, 2).join(top.rows(3, 5))

    @pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
    def test_a_join_is_bit_identical_to_a_standalone_kernel(self, monkeypatch, batch):
        monkeypatch.setattr(ntt, "_KERNEL_CACHE", {})
        joined = self.joined()
        standalone = ntt.NttKernel(joined.primes, 64)
        assert joined.primes == self.PRIMES[:2] + self.PRIMES[3:]
        assert [run.primes for run in joined.runs] == [self.PRIMES[:2], self.PRIMES[3:]]
        column = np.array(joined.primes, dtype=np.int64).reshape(-1, 1)
        values = np.random.default_rng(len(batch)).integers(0, 2**31, size=batch + (4, 64)) % column
        forward = joined.forward(values)
        assert np.array_equal(forward, standalone.forward(values))
        assert np.array_equal(joined.inverse(values), standalone.inverse(values))
        assert np.array_equal(joined.inverse(forward), values)
        with pytest.raises(ParameterError):
            joined.forward(values[..., :3, :])

    def test_a_join_tallies_the_rows_of_a_standalone_kernel(self, monkeypatch):
        monkeypatch.setattr(ntt, "_KERNEL_CACHE", {})
        joined = self.joined()
        standalone = ntt.NttKernel(joined.primes, 64)
        values = np.zeros((5, 4, 64), dtype=np.int64)
        tallies = []
        for kernel in (joined, standalone):
            before = ntt_rows()
            kernel.inverse(kernel.forward(values))
            tallies.append(ntt_rows() - before)
        assert tallies == [40, 40]

    def test_rows_and_joins_of_a_join_are_the_cached_kernels(self, monkeypatch):
        monkeypatch.setattr(ntt, "_KERNEL_CACHE", {})
        top = get_ntt_kernel(self.PRIMES, 64)
        joined = self.joined()
        assert joined is self.joined() is ntt._KERNEL_CACHE[(joined.primes, 64)]
        assert joined.rows(0, 4) is joined
        assert joined.rows(1, 3) is joined.rows(1, 3)
        assert joined.rows(1, 3).runs == (top.rows(1, 2), top.rows(3, 4))
        # Rows inside one run are that run's view; so is a dropped last prime.
        assert joined.rows(2, 4) is top.rows(3, 5)
        assert joined.drop_last().runs == (top.rows(0, 2), top.rows(3, 4))
        assert top.rows(0, 1).join(top.rows(4, 5)).drop_last() is top.rows(0, 1)
        assert list(owned_tables()) == [top]


class TestOneTableSet:
    """A context owns one NTT table set, its level-0 key basis's, at every level.

    A key basis past level 0 with tables of its own would make table memory
    grow with the square of the chain; these pins fail on it.
    """

    def test_a_relin_poly_request_owns_only_the_level_0_tables(self, monkeypatch):
        monkeypatch.setattr(ntt, "_KERNEL_CACHE", {})
        program = relin_poly_program()
        with EvaServer(backend=CkksBackend(seed=3), workers=1, batch_window=0.0) as server:
            server.register("relin_poly", program, options=OPTIONS)
            values = np.linspace(-1.0, 1.0, 2048)
            got = server.submit("relin_poly", {"x": values}, client_id="carol").result(120)
        want = execute_reference(program.graph, {"x": values})["y"]
        assert np.allclose(got.outputs["y"][: len(want)], want, atol=0.1)
        # 6 primes at N = 8192, 1.875 MiB each; tables of its own for the
        # level-1 key basis, which relinearizes x2 * x2 + x2 * x, add 9.375 MiB.
        ((owner, size),) = owned_tables().items()
        assert len(owner.primes) == 6 and size == 11.25 * 2**20

    def test_a_sobel_class_chain_owns_one_table_set_at_every_level(self, monkeypatch):
        monkeypatch.setattr(ntt, "_KERNEL_CACHE", {})
        # Sobel 64x64 as benchmarks/bench_table8_applications.py runs it.
        options = CompilerOptions(max_rescale_bits=28)
        parameters = CompiledProgram.compile(build_sobel_program(64), options=options).parameters
        assert (parameters.poly_modulus_degree, len(parameters.coeff_modulus_bits)) == (16384, 12)
        context = CkksContext(
            parameters.poly_modulus_degree,
            parameters.coeff_modulus_bits,
            special_primes=parameters.special_primes,
            group_size=parameters.group_size,
        )
        top = context.key_basis(0).kernel
        rng = np.random.default_rng(5)
        for level in range(context.max_level):
            key_basis = context.key_basis(level)
            residues = rng.integers(0, 2**24, size=(len(key_basis), 16384))
            extended = RnsPolynomial(key_basis, residues).to_eval()
            assert np.array_equal(extended.to_coeff().residues, residues)
            # The division after a key switch, and the rescale fused with it
            # (its rows cross from the special run into the data run).
            settled = extended.divide_and_round_last(key_basis.special)
            assert settled.basis is context.data_basis(level)
            assert np.array_equal(settled.to_coeff().to_eval().residues, settled.residues)
            if level + 1 < context.max_level:
                rescaled = extended.divide_and_round_last(key_basis.special + 1)
                assert rescaled.basis is context.data_basis(level + 1)
            for basis in (key_basis, settled.basis):
                assert all(
                    run is top or run._forward.base is top._forward for run in basis.kernel.runs
                )
        # 12 primes at N = 16384, 4 MiB each (168 MiB if every level built its own).
        assert owned_tables() == {top: 48 * 2**20}


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
    def test_multiply_chain_56_rows(self):
        rows = steady_state_rows(relin_poly_program(), (8192, [25] * 4 + [28, 28]), whole_request=False)
        # 126 before forms: multiply 56 (it transformed back), relinearize 70.
        # 82 while every product was relinearized and rescaled on its own: a
        # relinearization costs 20 rows at level 0 and 12 at level 1, a
        # rescale 10 and 8, and x2*x2 + x2*x now sums before doing either
        # once at level 1 (relinearize 20 + 12 + 12, rescale 10 + 8 + 8).
        # 62 with a digit per prime over one 30-bit special prime (relinearize
        # 20 + 12, rescale 10 + 8).  Now two digits of two primes over two
        # 28-bit special primes: a decomposition is d*K = 2*6 at level 0 and
        # 2*5 at level 1, and a rescale after it divides k + 1 = 3 rows back
        # and spreads the correction over L - 1, per polynomial: 2*(3 + 3)
        # and 2*(3 + 2).
        assert rows.pop("decrypt") == 4
        assert rows == {"multiply": 8, "relinearize": 12 + 10, "rescale": 12 + 10, "export": 4}

    def test_rotation_chain_86_rows(self):
        rows = steady_state_rows(rotate_sum_program(), (4096, [25, 25, 28, 28]), whole_request=False)
        assert rows.pop("decrypt") == 4
        # 120 when every rotation divided both halves: (L + 1)(L + 2) = 12 each.
        # 95 with a digit per prime: L*K = 6 digit rows forward and K = 3 back
        # for c1, L more to lift the fresh c0 once (rotate 2 + 10 * 9) and c0's
        # one owed division at export (K).  Now one digit of both primes over
        # two special primes: d*K = 4 forward and K = 4 back (2 + 10 * 8),
        # and the export's division takes one row more (K = 4).
        assert rows == {"rotate": 82, "export": 4}

    def test_server_held_keys_34_rows(self):
        rows = steady_state_rows(batch_poly_program(), (4096, [25, 25, 25, 30]), whole_request=True)
        # 48 before forms (multiply 15, relinearize 20, decrypt 4), 37 before
        # symmetric encryption (3L = 9 rows for the public-key path).
        assert rows == {"encrypt": 6, "multiply": 6, "relinearize": 12, "rescale": 8, "decrypt": 2}

    @pytest.mark.parametrize(
        "program", [rotate_sum_program, relin_poly_program, batch_poly_program],
        ids=["rotate_sum", "relin_poly", "batch_poly"],
    )
    def test_the_row_formula_is_what_each_key_switch_counts(self, program):
        """Every RELINEARIZE counts its decomposition of c2, ``modup_rows`` at
        its level (its two polynomials stay extended for the rescale), and
        every ROTATE the decomposition of its operand — once per operand, the
        lift of a fresh c0 (L rows) with it — and ``K`` to divide c1."""
        compiled = CompiledProgram.compile(program().graph, options=OPTIONS)
        parameters = compiled.parameters
        chain = (parameters.poly_modulus_degree, parameters.coeff_modulus_bits)
        rows = steady_state_rows(program(), chain, whole_request=program is batch_poly_program)
        levels, data = compute_levels(compiled.program), len(parameters.data_bits)
        shape = (parameters.group_size, parameters.special_primes)
        expected, decomposed = {"rotate": 0, "relinearize": 0}, set()
        for term in compiled.program.terms():
            primes = data - levels[term.id]
            if term.op is Op.RELINEARIZE:
                expected["relinearize"] += modup_rows(primes, *shape)
            elif term.op in (Op.ROTATE_LEFT, Op.ROTATE_RIGHT):
                operand = term.args[0]
                if operand.id not in decomposed:
                    decomposed.add(operand.id)
                    expected["rotate"] += modup_rows(primes, *shape) + primes * operand.is_input
                expected["rotate"] += primes + parameters.special_primes
        assert {op: rows.get(op, 0) for op in expected} == expected

    @pytest.mark.parametrize(
        "program, chain, keygen, encrypt, imported, steady",
        [
            # 150 / 6 / 240 / 120 before seeds: each of 11 switching keys paid 6
            # forward rows for a and the server 12 per key form (now 6, b only);
            # 180 / 120 while every rotation divided both halves.  76 keygen
            # rows while every kit made a relinearization key: s^2 back to
            # coefficient form (K = 3) and a*s per digit (L*K = 6).  The 10
            # Galois keys' forms (6 rows each) were paid by the first request
            # (155) until the import prepared them.
            # 67 / 4 / 60 / 95 with a digit per prime over one special prime
            # (6 keygen and attach rows per key); one digit over two special
            # primes takes 4 (d*K) rows of each.
            (rotate_sum_program, (4096, [25, 25, 28, 28]), 48, 4, 40, 86),
            # 72 / 12 / 146 / 82: one relinearization key, whose level-1 form is
            # a selection of the level-0 form (20 rows), not 24 rows more.
            # 102 / 82 while both level-1 products were relinearized (12 rows)
            # and rescaled (8) on their own, before their sum; a first request
            # of 82 while the key's form (20 rows) waited for it.
            # 38 / 8 / 20 / 62 with a digit per prime (the key's L*K = 20
            # rows); two digits of two primes over two special primes: 2*6.
            (relin_poly_program, (8192, [25] * 4 + [28, 28]), 32, 8, 12, 56),
        ],
        ids=["rotate_sum", "relin_poly"],
    )
    def test_a_new_client_row_by_row(self, program, chain, keygen, encrypt, imported, steady):
        """Key generation, the import that prepares the server's key forms,
        a first and a steady request — evaluation and the reply's export —
        and encryption: a kit on one side, an evaluation context imported
        from its ``{seed, b}`` export on the other.  The first request costs
        what the steady one does."""
        program = program()
        compiled = CompiledProgram.compile(program.graph, options=OPTIONS)
        parameters = compiled.parameters
        assert (parameters.poly_modulus_degree, parameters.coeff_modulus_bits) == chain
        backend = CkksBackend(seed=3)
        kit = ClientKit(compiled, backend=backend)
        assert kit.context.drain_ntt_rows() == {"keygen": keygen}
        assert [(op, count) for op, (count, _) in kit.context.drain_op_times().items()] == [("keygen", 1)]
        keys = json.loads(json.dumps(kit.export_evaluation_keys()))
        before = ntt_rows()
        server = backend.create_evaluation_context(parameters, keys)
        assert ntt_rows() - before == imported  # charged to no op: no request made it
        assert not kit.context.drain_ntt_rows() and not server.drain_ntt_rows()
        engine = EvaluationEngine(compiled, backend=backend)
        values = np.random.default_rng(1).uniform(-1.0, 1.0, program.graph.vec_size)
        for expected in (steady, steady):
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

    @pytest.mark.parametrize(
        "program, keys, form_bytes",
        # 196 608 and 1 310 720 bytes (2*L*(L+1)*N*4) with a digit per prime.
        [(rotate_sum_program, 10, 2 * 1 * 4 * 4096 * 4), (relin_poly_program, 1, 2 * 2 * 6 * 8192 * 4)],
        ids=["rotate_sum", "relin_poly"],
    )
    def test_an_imported_session_holds_each_key_once_and_no_hoisted_digits(self, program, keys, form_bytes):
        """Each switching key is its level-0 form alone, 2*d*(L+k)*N*4 bytes of
        ``uint32`` (where an import kept the coefficient ``b`` beside a cached
        int64 form per level), and once an evaluation has released its handles
        the hoisting cache holds nothing: no digit NTTs, no ciphertext pinned."""
        program = program()
        compiled = CompiledProgram.compile(program.graph, options=OPTIONS)
        backend = CkksBackend(seed=3)
        kit = ClientKit(compiled, backend=backend)
        server = backend.create_evaluation_context(
            compiled.parameters, json.loads(json.dumps(kit.export_evaluation_keys()))
        )
        parameters = compiled.parameters
        digits = -(-len(parameters.data_bits) // parameters.group_size)
        assert form_bytes == 2 * digits * len(parameters.coeff_modulus_bits) * parameters.poly_modulus_degree * 4
        evaluator = server.evaluator
        held = list(evaluator.galois_keys.keys.values())
        held += [evaluator.relin_key.key] if evaluator.relin_key else []
        assert len(held) == keys
        for key in held:
            assert key.pairs == {} and key.form.base is None and key.form.dtype == np.uint32
            assert key.form.nbytes == form_bytes
            assert all(isinstance(a, SeededUniform) and not a._coefficients for a in key.seeds.values())
        engine = EvaluationEngine(compiled, backend=backend)
        values = np.random.default_rng(1).uniform(-1.0, 1.0, program.graph.vec_size)
        for _ in range(2):
            wire = json.loads(json.dumps(kit.bundle_to_wire(kit.encrypt_inputs({"x": values}))))
            ciphers = {name: server.decode_cipher(c) for name, c in wire["ciphertexts"].items()}
            handles = engine.evaluate(server, ciphers, {}, retire_inputs=True)
            reply = server.encode_cipher(handles["y"])
            server.release(handles["y"])
            assert not evaluator._hoist_cache and server.live_ciphertexts == 0
        answer = kit.context.decrypt(kit.context.decode_cipher(reply))[: program.graph.vec_size]
        assert np.allclose(answer, execute_reference(program.graph, {"x": values})["y"], atol=0.1)

    def test_threaded_evaluations_leave_no_hoisted_entry(self):
        """Rotations and releases racing on one evaluator (four executor
        threads on two cores, a short switch interval): every answer right,
        and no entry left once each evaluation has released its handles."""
        program = EvaProgram("fan", vec_size=1024, default_scale=25)
        with program:  # a hoisted group whose rotations run side by side, then a chain
            x = input_encrypted("x", 25)
            fan = x + (x << 1) + (x << 2) + (x << 3) + (x << 5)
            output("y", fan + (fan << 7), 25)
        compiled = CompiledProgram.compile(program.graph, options=OPTIONS)
        backend = CkksBackend(seed=3)
        kit = ClientKit(compiled, backend=backend)
        server = backend.create_evaluation_context(compiled.parameters, kit.export_evaluation_keys())
        engine = EvaluationEngine(compiled, backend=backend, threads=4)
        values = np.random.default_rng(2).uniform(-1.0, 1.0, program.graph.vec_size)
        expected = execute_reference(program.graph, {"x": values})["y"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                wire = kit.bundle_to_wire(kit.encrypt_inputs({"x": values}))
                ciphers = {name: server.decode_cipher(c) for name, c in wire["ciphertexts"].items()}
                handles = engine.evaluate(server, ciphers, {}, retire_inputs=True)
                reply = kit.context.decode_cipher(server.encode_cipher(handles["y"]))
                server.release(handles["y"])
                assert not server.evaluator._hoist_cache and server.live_ciphertexts == 0
                assert np.allclose(kit.context.decrypt(reply)[: len(expected)], expected, atol=0.1)
        finally:
            sys.setswitchinterval(interval)

    def test_hoisted_rotations_of_an_evaluation_form_ciphertext(self, scheme):
        """L + L^2 digit rows once and 1 + L per step (c1 divided in evaluation
        form; c0 is lifted from evaluation form for nothing) — the cache is
        keyed on the ciphertext's own c1, so the conversion cannot make it
        miss — and the entry goes when the ciphertext is released."""
        ev, count = scheme.evaluator, 3
        for key in ev.galois_keys.keys.values():
            key.evaluation_form(scheme.context)  # what an import prepares
        a = operand(scheme, 0, "eval")
        before = ntt_rows()
        ev.rotate(a, 1)
        assert ntt_rows() - before == count + count**2 + (1 + count)
        for step in (STEP, 1, STEP):
            before = ntt_rows()
            ev.rotate(a, step)
            assert ntt_rows() - before == 1 + count
        assert any(entry[0] is a.polys[1] for entry in ev._hoist_cache.values())
        ev.forget(a)
        assert not any(entry[0] is a.polys[1] for entry in ev._hoist_cache.values())

    def test_a_rotation_feeding_a_plain_multiply_pays_in_the_settle(self):
        """Sobel 64x64 at the compiler-chosen N = 16384, 7 x 28-bit chain and a
        30-bit special prime (the compiler's since it chose its width): every
        rotation feeds ``multiply_plain``, which needs c0's value at once — so
        the rows a rotation no longer spends dividing c0 (K each) are spent
        settling it there (1 + L), and the totals are the ones measured before
        c0 waited.  912 steady and 1192 with cold key forms while each of the
        25 products was rescaled on its own (rescale 326, relinearize 134 / 190
        cold); summing before rescaling and relinearizing leaves 8 RESCALE and
        3 RELINEARIZE: 632 steady, 912 cold with a digit per prime.  The
        compiler now groups the seven primes in two digits (4 + 3) over four
        29-bit special primes: 550 steady, 660 cold."""
        program = build_sobel_program(image_size=64, scale=28.0)
        options = CompilerOptions(max_rescale_bits=28)
        compilation = CompiledProgram.compile(program.graph, options=options)
        assert compilation.parameters.poly_modulus_degree == 16384
        assert compilation.parameters.coeff_modulus_bits == [28] * 7 + [29] * 4
        assert (compilation.parameters.group_size, compilation.parameters.special_primes) == (4, 4)
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
        assert sum(cold.values()) == 660 and sum(steady.values()) == 550
        # (88, 92, 148) with a digit per prime: the rescales after the three
        # relinearizations divide four special primes more, and a
        # decomposition is d*K = 2*11 rows at level 0 where it was 7*8.
        assert (steady["rescale"], steady["relinearize"], cold["relinearize"]) == (106, 46, 68)
        # Three hoisted groups of evaluation-form ciphertexts, 8 rotations:
        # d*K = 2*11 digit rows per group and K = k + L per step for c1
        # (3 * 56 + 8 * 8 with a digit per prime) ...
        assert steady["rotate"] == 3 * (2 * 11) + 8 * (4 + 7)
        # ... and 8 settles of an extended c0, k + L each, at the multiplications.
        assert steady["multiply_plain"] == 152 + 8 * (4 + 7)
        expected = execute_reference(program.graph, inputs)["edges"]
        answer = context.decrypt(context.decode_cipher(wire))
        # 0.00254 while every product was rescaled on its own: no worse now.
        assert np.max(np.abs(answer[: len(expected)] - expected)) <= 0.00254

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
        special = compiled.parameters.special_primes
        assert [p.basis.special for p in rotated.polys] == [special, 0]
        data_rows, degree = len(context.context.data_basis(0)), context.context.poly_modulus_degree
        context.drain_ntt_rows()
        wire = context.encode_cipher(rotated)
        assert context.drain_ntt_rows() == {"export": data_rows + special}
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
        context = client.evaluation_context()
        keys = context.evaluator.relin_key, context.evaluator.galois_keys
        replies, outputs = [], []
        with EvaServer(backend=backend, workers=1) as server:
            server.register(compiled.name, compiled)
            server.create_session(compiled.name, "forms", context)
            for evaluator in (Evaluator, StepwiseCoefficientEvaluator):
                context.evaluator = evaluator(context.context, *keys)
                response = server.request_encrypted(compiled.name, wire, timeout=120)
                decoded = client.outputs_from_wire(response.to_wire())
                response.release()
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

    @pytest.mark.parametrize(
        "build, image_size, vec_size, seed",
        [(build_sobel_program, 16, 1024, 11), (build_harris_program, 8, 256, 13)],
        ids=["sobel", "harris"],
    )
    def test_lane_programs(self, build, image_size, vec_size, seed):
        """The two image kernels *multiply* sums of rotations, so a merged
        rounding ``d`` in one factor's ``c0`` becomes ``d`` times the other
        factor in the product — no longer small, in both polynomials — while
        decrypting to ``d`` times the other factor's *message*.  They are
        held to that: the two runs decrypt alike, to well within the distance
        either keeps from the reference (at this 20-bit scale the real backend
        decrypts them to noise, before forms too: an error of ~100, and the
        runs 0.05 / 0.3 apart)."""
        program = build(image_size=image_size, scale=20.0, vec_size=vec_size)
        options = CompilerOptions(max_rescale_bits=20, lane_width=image_size * image_size)
        inputs = {"image": np.random.default_rng(seed).uniform(0.0, 1.0, vec_size)}
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
