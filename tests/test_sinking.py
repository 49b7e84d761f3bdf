"""Summing before rescaling and relinearizing (``rewrite.framework.sink_below_sums``).

The match-scale pass ends by rewriting ``RESCALE_d(a) ± RESCALE_d(b)`` into
``RESCALE_d(a ± b)``, the relinearize pass ``RELINEARIZE(a) ± RELINEARIZE(b)``
into ``RELINEARIZE(a ± b)``, each only when both operands are used by the sum
alone and neither is a program output.  Checked here:

* random ADD/SUB/NEGATE trees over cipher×cipher and cipher×plain products at
  one scale, some intermediates shared or outputs, under both policies: the
  mock backend agrees with ``execute_reference``; no sum is left that either
  rule would fire on; every operand the guard kept (an output, or used twice)
  is still in the graph; there are no more RELINEARIZE than cipher×cipher
  MULTIPLY;
* the rules move no parameter: ``N`` and the chain of the served programs and
  of the compile zoo are the ones pinned below, under both policies;
* the served programs on real CKKS, with one RELINEARIZE and one RESCALE
  fewer than products where a sum of products is rescaled;
* every pass of an eva compile is named in ``BENCHMARK.json``'s catalogue,
  whose harness refuses a metric it does not name.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import CkksBackend, MockBackend
from repro.core import CompilerOptions, Executor, Program, compile_program, execute_reference
from repro.core.analysis.parameters import SPECIAL_PRIME_BITS
from repro.core.instructions import INSTRUCTIONS
from repro.core.rewrite import RelinearizePass, framework, matchscale, relinearize
from repro.core.rewrite.framework import PassContext
from repro.core.types import Op, ValueType

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "e2e"))
import e2e_programs  # noqa: E402
from compiled_corpus import relinearized_polynomial  # noqa: E402

VEC_SIZE = 8
POLICIES = ("eva", "chet")
SUNK = (Op.RESCALE, Op.RELINEARIZE)


@st.composite
def sums_of_products(draw):
    """Products of two 25-bit ciphertexts, or of one and a 25-bit plaintext
    vector, summed, subtracted and negated; an operand is left for reuse (a
    second consumer) half the time, and some terms become extra outputs."""
    program = Program("sums", vec_size=VEC_SIZE)
    ciphers = [program.input(name, ValueType.CIPHER, scale=25) for name in ("x", "y")]
    values = st.lists(st.floats(-1, 1), min_size=VEC_SIZE, max_size=VEC_SIZE)
    products = []
    for _ in range(draw(st.integers(2, 6))):
        a = draw(st.sampled_from(ciphers))
        if draw(st.booleans()):
            b = draw(st.sampled_from(ciphers))
        else:
            b = program.constant(np.asarray(draw(values)), scale=25)
        products.append(program.make_term(Op.MULTIPLY, [a, b]))
    pool = products + ciphers[: draw(st.integers(0, 2))]
    made = []
    for _ in range(draw(st.integers(1, 10))):
        op = draw(st.sampled_from([Op.ADD, Op.SUB, Op.NEGATE]))
        operands = [draw(st.sampled_from(pool)) for _ in range(INSTRUCTIONS[op].arity)]
        if not draw(st.booleans()):
            pool = [term for term in pool if all(term is not o for o in operands)] or pool
        made.append(program.make_term(op, operands))
        pool.append(made[-1])
    program.set_output("out", made[-1], scale=25)
    for index, term in enumerate(draw(st.lists(st.sampled_from(made[:-1] + products), max_size=2))):
        program.set_output(f"extra{index}", term, scale=25)
    inputs = {name: np.asarray(draw(values)) for name in ("x", "y")}
    return program, inputs


def options(policy: str) -> CompilerOptions:
    return CompilerOptions(policy=policy, max_rescale_bits=25)


def fireable(program: Program):
    """Sums either rule would still rewrite, restated from the rule's text."""
    uses = program.uses()
    outputs = {term.id for term in program.outputs.values()}
    left = []
    for term in program.terms():
        if term.op not in (Op.ADD, Op.SUB):
            continue
        x, y = term.args
        if x is y or x.op is not y.op or x.op not in SUNK or x.rescale_value != y.rescale_value:
            continue
        if all(len(uses[t.id]) == 1 and t.id not in outputs for t in (x, y)):
            left.append(term)
    return left


@contextmanager
def rules(rule):
    """Both passes calling ``rule`` in place of ``sink_below_sums``."""
    with mock.patch.object(matchscale, "sink_below_sums", rule):
        with mock.patch.object(relinearize, "sink_below_sums", rule):
            yield


def compile_watching_the_guard(program: Program, policy: str):
    """Compile, recording the terms of the sunk opcode each rule's guard keeps
    (outputs, or used more than once) just before the rule runs."""
    kept = []

    def watching(graph, op):
        uses = graph.uses()
        outputs = {term.id for term in graph.outputs.values()}
        kept.extend(
            t for t in graph.terms() if t.op is op and (t.id in outputs or len(uses[t.id]) > 1)
        )
        return framework.sink_below_sums(graph, op)

    with rules(watching):
        compiled = compile_program(program, options=options(policy))
    return compiled, kept


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=60, deadline=None)
@given(case=sums_of_products())
def test_sums_of_products(policy, case):
    program, inputs = case
    compiled, kept = compile_watching_the_guard(program, policy)
    graph = compiled.program
    reference = execute_reference(program, inputs)
    outputs = Executor(compiled, MockBackend(error_model="none")).execute(inputs).outputs
    for name, want in reference.items():
        np.testing.assert_allclose(outputs[name][: len(want)], want, rtol=1e-9, atol=1e-9)
    assert not fireable(graph)
    reachable = {term.id for term in graph.terms()}
    assert all(term.id in reachable for term in kept)
    counts = graph.op_counts()
    cipher_products = sum(
        1
        for term in graph.terms()
        if term.op is Op.MULTIPLY and all(a.value_type is ValueType.CIPHER for a in term.args)
    )
    assert counts.get(Op.RELINEARIZE, 0) <= cipher_products


def test_a_sum_of_products_is_relinearized_and_rescaled_once():
    """``(x*y + y*y) - x*x``: three products, one RELINEARIZE and one RESCALE;
    with ``x*x`` an output too, it keeps its own and the outer SUB stays."""
    program = Program("three", vec_size=VEC_SIZE)
    x, y = (program.input(name, ValueType.CIPHER, scale=25) for name in ("x", "y"))
    xy, xx, yy = (program.make_term(Op.MULTIPLY, pair) for pair in ([x, y], [x, x], [y, y]))
    total = program.make_term(Op.SUB, [program.make_term(Op.ADD, [xy, yy]), xx])
    program.set_output("out", total, scale=25)
    for policy in POLICIES:
        compiled = compile_program(program, options=options(policy))
        counts = compiled.program.op_counts()
        assert (counts[Op.RELINEARIZE], counts[Op.RESCALE]) == (1, 1), policy
        reports = {report.name: report.rewrites for report in compiled.pass_reports}
        assert reports["match-scale"] == 2 and reports["relinearize"] == 3 + 2, policy
    program.set_output("xx", xx, scale=25)
    compiled, kept = compile_watching_the_guard(program, "eva")
    counts = compiled.program.op_counts()
    assert (counts[Op.RELINEARIZE], counts[Op.RESCALE]) == (2, 2)
    # The output is x*x's RESCALE; its RELINEARIZE never met a sum.
    assert [term.op for term in kept] == [Op.RESCALE]


def test_relinearizing_a_summed_product_again_changes_nothing():
    program = Program("twice", vec_size=VEC_SIZE)
    x, y = (program.input(name, ValueType.CIPHER, scale=25) for name in ("x", "y"))
    products = [program.make_term(Op.MULTIPLY, pair) for pair in ([x, y], [x, x])]
    program.set_output("out", program.make_term(Op.ADD, products), scale=25)
    assert RelinearizePass().run(program, PassContext()) == 2 + 1
    assert RelinearizePass().run(program, PassContext()) == 0
    assert program.op_counts()[Op.RELINEARIZE] == 1


@pytest.mark.parametrize("op", [Op.ADD, Op.SUB])
def test_the_rule_on_a_hand_made_sum(op):
    """Equal divisors only; the sum keeps its kernel label and lends it to
    the RESCALE after it; an operand used twice by one sum stays."""
    program = Program("hand", vec_size=VEC_SIZE)
    a, b = (program.input(name, ValueType.CIPHER, scale=50) for name in ("a", "b"))

    def rescaled_sum(left_bits, right_bits):
        left = program.make_term(Op.RESCALE, [a], rescale_value=left_bits)
        right = program.make_term(Op.RESCALE, [b], rescale_value=right_bits)
        return program.make_term(op, [left, right], kernel="k")

    program.set_output("out", rescaled_sum(25.0, 20.0))
    assert framework.sink_below_sums(program, Op.RESCALE) == 0
    twice = program.make_term(Op.RESCALE, [a], rescale_value=25.0)
    program.set_output("out", program.make_term(op, [twice, twice]))
    assert framework.sink_below_sums(program, Op.RESCALE) == 0
    total = rescaled_sum(25.0, 25.0)
    program.set_output("out", total)
    assert framework.sink_below_sums(program, Op.RESCALE) == 1
    out = program.outputs["out"]
    assert (out.op, out.rescale_value, out.kernel, out.args) == (Op.RESCALE, 25.0, "k", [total])
    assert (total.op, total.args, total.kernel) == (op, [a, b], "k")
    assert program.uses()[a.id] == [total]


# -- no parameter moves --------------------------------------------------------------
SERVED = {
    "rotate_sum": e2e_programs.build_rotate_sum,
    "relin_poly": e2e_programs.build_relin_poly,
    "batch_poly": e2e_programs.build_batch_poly,
}
ZOO = {entry.name: entry for entry in e2e_programs.compile_zoo()}
_CHET_SQUEEZENET = [25, 25, 60, 25, 25, 60] + [25, 25, 25, 60] * 7 + [25, 25, 55, 60]
_CHET_LENET = [25, 25, 60, 25, 25, 60, 25, 25, 25, 60, 25, 60, 60]
#: (program, policy) -> (N, coefficient modulus bits), as before the rules.
#: The served programs' special prime is 30 bits since the compiler chose its
#: width (it was 25 and the backend raised it to 30): N and the primes that
#: run are as they were.  Since key switching is grouped these are the chains
#: with the one special prime N is chosen for: the data primes and N that run.
PARAMETERS = {
    ("rotate_sum", "eva"): (4096, [25, 25, 30]),
    ("rotate_sum", "chet"): (4096, [25, 25, 30]),
    ("relin_poly", "eva"): (8192, [25] * 4 + [30]),
    ("relin_poly", "chet"): (8192, [25] * 4 + [30]),
    ("batch_poly", "eva"): (4096, [25, 25, 25, 30]),
    ("batch_poly", "chet"): (4096, [25, 25, 25, 30]),
    ("squeezenet-cifar", "eva"): (32768, [60] * 11 + [20, 60]),
    ("squeezenet-cifar", "chet"): (65536, _CHET_SQUEEZENET),
    ("lenet5-medium", "eva"): (16384, [60] * 6),
    ("lenet5-medium", "chet"): (32768, _CHET_LENET),
    ("lenet5-small", "eva"): (16384, [60] * 6),
    ("lenet5-small", "chet"): (32768, _CHET_LENET),
    ("sobel32", "eva"): (16384, [60] * 6),
    ("sobel32", "chet"): (16384, [30] * 5 + [60, 60]),
    ("harris32", "eva"): (16384, [60, 60, 60, 60, 30, 60]),
    ("harris32", "chet"): (16384, [30] * 4 + [60, 60]),
    ("polyreg4096", "eva"): (8192, [60, 60, 30, 60]),
    ("polyreg4096", "chet"): (8192, [30, 30, 30, 60, 60]),
    ("pathlen1024", "eva"): (16384, [60, 60, 60, 60, 30, 60]),
    ("pathlen1024", "chet"): (16384, [30] * 5 + [60, 60]),
}
#: (program, policy) -> (data primes per digit, special prime widths) that run:
#: the one special prime above gives way to these where the program switches
#: a key and the security table leaves room at that N.
KEY_SWITCHING = {
    ("rotate_sum", "eva"): (2, [28, 28]),
    ("rotate_sum", "chet"): (2, [28, 28]),
    ("relin_poly", "eva"): (2, [28, 28]),
    ("relin_poly", "chet"): (2, [28, 28]),
    ("batch_poly", "eva"): (1, [30]),
    ("batch_poly", "chet"): (1, [30]),
    ("squeezenet-cifar", "eva"): (3, [60] * 3),
    ("squeezenet-cifar", "chet"): (13, [58] * 8),
    ("lenet5-medium", "eva"): (2, [60] * 2),
    ("lenet5-medium", "chet"): (6, [55] * 4),
    ("lenet5-small", "eva"): (2, [60] * 2),
    ("lenet5-small", "chet"): (6, [55] * 4),
    ("sobel32", "eva"): (2, [60] * 2),
    ("sobel32", "chet"): (3, [60] * 2),
    ("harris32", "eva"): (2, [60] * 2),
    ("harris32", "chet"): (3, [60] * 2),
    ("polyreg4096", "eva"): (1, [60]),
    ("polyreg4096", "chet"): (1, [60]),
    ("pathlen1024", "eva"): (2, [60] * 2),
    ("pathlen1024", "chet"): (3, [60] * 2),
}


@pytest.mark.parametrize("name, policy", list(PARAMETERS))
def test_parameters_are_pinned(name, policy):
    if name in SERVED:
        program, base = SERVED[name](), e2e_programs.serving_options()
    else:
        program, base = ZOO[name].build()[0], CompilerOptions()
    compiled = compile_program(program.graph, options=dataclasses.replace(base, policy=policy))
    parameters = compiled.parameters
    data = parameters.data_bits
    one_special = max(int(base.max_rescale_bits), SPECIAL_PRIME_BITS)
    assert (parameters.poly_modulus_degree, data + [one_special]) == PARAMETERS[name, policy]
    special = parameters.coeff_modulus_bits[len(data) :]
    assert (parameters.group_size, special) == KEY_SWITCHING[name, policy]
    assert not fireable(compiled.program)


# -- real CKKS ---------------------------------------------------------------------
@pytest.mark.parametrize(
    "build, counts",
    [
        # x^4 + x^3 + x^2 + x: x^4 and x^3 are summed, then relinearized and
        # rescaled once (3 / 3 before).
        (lambda: e2e_programs.build_relin_poly().graph, (2, 2)),
        # x*x*y + x*y*0.5 - 1: the two terms are summed, then rescaled once
        # (4 RESCALE before); x*y*0.5 is relinearized before its plain
        # multiply, so no sum meets two RELINEARIZE.
        (relinearized_polynomial, (3, 3)),
    ],
    ids=["relin_poly", "poly_relin"],
)
def test_served_programs_on_ckks(build, counts):
    """Against the same program compiled without the rules: as accurate, to
    within the spread of the roundings (each rule merges some)."""
    program = build()
    rng = np.random.default_rng(4)
    inputs = {name: rng.uniform(-1.0, 1.0, program.vec_size) for name in program.inputs}
    reference = execute_reference(program, inputs)
    errors = []
    for sink in (True, False):
        with rules(framework.sink_below_sums if sink else lambda graph, op: 0):
            compiled = compile_program(program, options=options("eva"))
        ops = compiled.program.op_counts()
        if sink:
            assert (ops[Op.RELINEARIZE], ops[Op.RESCALE]) == counts
        outputs = Executor(compiled, CkksBackend(seed=4)).execute(inputs).outputs
        errors.append(
            max(np.max(np.abs(outputs[k][: len(want)] - want)) for k, want in reference.items())
        )
    sunk, unsunk = errors
    assert sunk < e2e_programs.ATOL_CKKS and sunk <= 1.1 * unsunk


# -- the harness catalogue -----------------------------------------------------------
def test_every_eva_pass_is_catalogued():
    """The e2e harness emits ``core.compiler.pass.<name>.{seconds,rewrites}``
    for every pass of an eva compile and exits on a name ``BENCHMARK.json``
    does not catalogue, so a new pass name needs the catalogue first."""
    catalogue = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    names = {metric["name"] for metric in catalogue["per_layer"]}
    compiled = compile_program(
        e2e_programs.build_relin_poly().graph, options=CompilerOptions(policy="eva")
    )
    assert compiled.pass_reports
    for report in compiled.pass_reports:
        for field in ("seconds", "rewrites"):
            assert f"core.compiler.pass.{report.name}.{field}" in names
