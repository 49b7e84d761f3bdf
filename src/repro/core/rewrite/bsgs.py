"""Baby-step/giant-step rotation lowering: O(sqrt(k)) Galois keys for k steps.

Each distinct rotation step needs its own Galois key, and PR 7 made painfully
concrete what that costs: the keys are the multi-MB blobs dominating session
setup.  For a base ``B``, any step ``s`` splits as ``s = g + b`` with giant
``g = B * (s // B)`` and baby ``b = s % B``, and ``rot_s(x) ==
rot_b(rot_g(x))`` — so the program only needs keys for the babies and giants
it actually uses, not for every composite step.

The step-set planning lives in
:func:`repro.core.analysis.rotations.plan_rotation_steps`; this pass applies
the chosen plan to the graph.  Giant rotations are cached per ``(source,
giant)`` — and pre-populated with the program's *existing* rotation terms, so
a stencil whose row strides are already computed (Sobel's ``rot(8)`` /
``rot(16)`` taps) pays **zero** extra rotations for the decomposition: only
the baby hop on top of a term the program evaluates anyway.

The pass runs after the cleanup passes (CSE has merged duplicate rotations,
so the cache sees one term per (source, step)) and before scale management —
rotations neither change scales nor consume levels, so chaining two of them
is transparent to the waterline bookkeeping.  Downstream, rotation-key
selection walks the *final* graph and therefore automatically collects the
reduced set; it flows unchanged through ``CompilationResult`` into client
keygen, key export, and the serving session manager.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..analysis.rotations import normalize_step, plan_rotation_steps, select_rotation_steps
from ..instructions import immediate_of
from ..ir import GraphEditor, Program, Term
from ..types import Op
from .framework import PassContext, RewritePass


class BsgsRotationPass(RewritePass):
    """Lower decomposed rotations to ``rot_baby(rot_giant(x))`` chains.

    ``mode`` mirrors :func:`plan_rotation_steps`: ``"auto"`` (cost-model
    arbitration between key savings and extra giant rotations), ``"always"``
    (fewest keys), or ``"off"`` (identity).
    """

    name = "bsgs-rotations"
    direction = "forward"

    def __init__(self, mode: str = "auto", cost_model=None) -> None:
        self.mode = mode
        self.cost_model = cost_model

    def run(self, program: Program, context: PassContext) -> int:
        if self.mode == "off":
            return 0
        vec_size = program.vec_size
        steps = select_rotation_steps(program)
        plan = plan_rotation_steps(
            steps,
            vec_size,
            mode=self.mode,
            cost_model=self.cost_model,
            poly_degree=2 * vec_size,
            levels=program.multiplicative_depth() + 2,
        )
        context.extra["rotation_plan"] = plan
        if not plan.decomposed:
            return 0
        terms = program.terms()
        # Share giants per (source, giant step), seeded with the rotations the
        # program already computes directly: a decomposition whose giants are
        # existing taps adds no rotations at all.
        giants: Dict[Tuple[int, int], Term] = {}
        for term in terms:
            if immediate_of(term.op) != "rotation":
                continue
            step = normalize_step(term.op, term.rotation, vec_size)
            if step != 0 and step not in plan.decompositions:
                giants.setdefault((term.args[0].id, step), term)
        editor = GraphEditor(program)
        rewrites = 0
        for term in terms:
            if immediate_of(term.op) != "rotation":
                continue
            step = normalize_step(term.op, term.rotation, vec_size)
            pair = plan.decompositions.get(step)
            if pair is None:
                continue
            giant_step, baby_step = pair
            source = term.args[0]
            giant = giants.get((source.id, giant_step))
            if giant is None:
                giant = Term(
                    Op.ROTATE_LEFT, [source], source.value_type, rotation=giant_step
                )
                if term.kernel is not None:
                    giant.attributes["kernel"] = term.kernel
                giants[(source.id, giant_step)] = giant
            baby = Term(
                Op.ROTATE_LEFT, [giant], giant.value_type, rotation=baby_step
            )
            if term.kernel is not None:
                baby.attributes["kernel"] = term.kernel
            editor.replace_term(term, baby)
            rewrites += 1
        return rewrites
