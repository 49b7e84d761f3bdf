"""Lane-aware rotation lowering: make rotation-bearing programs slot-batchable.

A CKKS ciphertext carries ``vec_size`` slots but most requests use far fewer;
the serving layer amortizes a homomorphic evaluation by packing independent
requests into *lanes* of a power-of-two width ``w``.  Packing is trivially
sound for slotwise programs, but ROTATE and SUM move data across lane
boundaries, which is exactly what excludes the rotation-heavy Sobel / Harris /
DNN workloads of Section 8 from batching.

This pass rewrites every rotation into a *lane-safe* form.  For a left
rotation by ``k`` (normalized to ``k' = k mod w``), the identity is::

    lane_rot(k') = mask_in * global_rot(k') + mask_wrap * global_rot(k' - w)

where ``mask_in`` is the plaintext 0/1 vector selecting the slots whose source
stays inside the lane (lane offsets ``[0, w - k')``) and ``mask_wrap`` the
complement (offsets that wrap around the lane boundary).

The wrap branch is emitted in *composed* form: since ``rot(k' - w) ==
rot(vec_size - w) . rot(k')``, the pass reuses the in-lane rotation and
applies one further left rotation by ``vec_size - w`` — a step shared by
*every* lane step of the program.  ``k`` distinct lane steps therefore need
``k + 1`` Galois keys instead of the ``2k`` of the legacy form (one fresh step
``vec_size - w + k'`` per rotation), and the shared-source wrap rotations are
exactly what :class:`~repro.core.rewrite.hoisting.RotationHoistingPass` later
collapses into a single hoisted rotation per additive tree.  The legacy
mask-pair form is kept behind ``hoisted=False`` as the PR 7 baseline for the
rotation-cost benchmark.

The pass runs *after* :class:`~repro.core.rewrite.lowering.ExpandSumPass`:
SUM is first expanded into the standard log-depth rotate-and-add tree, and
lowering each of those rotations yields a lane-local reduction (shifts that
are multiples of ``w`` degenerate into plain doublings).  The result computes,
in every lane, exactly what the original program computes on a ``w``-periodic
(replicated) input — so a batched lane matches a solo run of the same request
bit-for-bit up to CKKS noise.

The masks cost one extra plaintext multiply per rotation; their scales are
managed by the ordinary downstream passes (WATERLINE-RESCALE inserts rescales
where the products exceed the waterline, MATCH-SCALE equalizes the branches of
mixed-scale additions), so Constraints 1-4 keep holding on lowered programs
without any scale bookkeeping here.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ...errors import CompilationError
from ..analysis.rotations import lane_lowered_step_pair, lane_wrap_step, normalize_step
from ..instructions import immediate_of
from ..ir import GraphEditor, Program, Term
from ..types import Op, ValueType
from .framework import PassContext, RewritePass, waterline_of


def _constant_width(value) -> int:
    return int(np.atleast_1d(np.asarray(value, dtype=np.float64)).size)


class LaneLoweringPass(RewritePass):
    """Rewrite rotations into the masked lane-local form (see module docs).

    ``lane_width`` must be a power of two dividing the program's ``vec_size``;
    when it equals ``vec_size`` the pass is the identity (a single full-width
    lane *is* the whole ciphertext).
    """

    name = "lane-lowering"
    direction = "forward"

    def __init__(self, lane_width: int, hoisted: bool = True) -> None:
        self.lane_width = int(lane_width)
        #: Emit the wrap branch as a composition sharing the single step
        #: ``vec_size - w`` (default); ``False`` restores the legacy
        #: mask-pair form with a distinct wrap step per rotation.
        self.hoisted = bool(hoisted)

    def run(self, program: Program, context: PassContext) -> int:
        width = self.lane_width
        vec_size = program.vec_size
        if width >= vec_size:
            return 0
        if vec_size % width:
            raise CompilationError(
                f"lane width {width} does not divide the vector size {vec_size}"
            )
        # Lane uniformity: a constant tiles with its own period during
        # encoding, so every lane sees the same constant only if each
        # constant's length divides the lane width.
        for term in program.terms():
            if term.is_constant:
                length = _constant_width(term.value)
                if width % length:
                    raise CompilationError(
                        f"constant of length {length} does not divide the lane "
                        f"width {width}; the program cannot be lane-lowered at "
                        f"this width"
                    )

        # The masks are 0/1 selectors; encode them like any other program
        # constant, at the waterline, and let the downstream scale passes do
        # the bookkeeping.
        mask_scale = max(
            context.waterline_bits
            if context.waterline_bits is not None
            else waterline_of(program),
            1.0,
        )
        editor = GraphEditor(program)
        masks: Dict[Tuple[int, bool], Term] = {}
        rewrites = 0
        for term in program.terms():
            if immediate_of(term.op) != "rotation":
                continue
            rewrites += 1
            step = normalize_step(term.op, term.rotation, vec_size) % width
            if step == 0:
                # Rotations by a multiple of the lane width are lane-local
                # identities (this includes the >= w shifts of an expanded
                # SUM, which thereby degenerate into doublings).
                editor.replace_term(term, term.args[0])
                continue
            step_in, step_wrap = lane_lowered_step_pair(step, width, vec_size)
            source = term.args[0]
            rot_in = Term(Op.ROTATE_LEFT, [source], source.value_type, rotation=step_in)
            if self.hoisted:
                # rot(k - w) == rot(vec_size - w) . rot(k): reuse the in-lane
                # rotation so every wrap branch shares one Galois key step.
                rot_wrap = Term(
                    Op.ROTATE_LEFT,
                    [rot_in],
                    rot_in.value_type,
                    rotation=lane_wrap_step(width, vec_size),
                )
            else:
                rot_wrap = Term(
                    Op.ROTATE_LEFT, [source], source.value_type, rotation=step_wrap
                )
            kept_in = program.make_term(
                Op.MULTIPLY, [rot_in, self._mask(program, masks, step, mask_scale, wrap=False)]
            )
            kept_wrap = program.make_term(
                Op.MULTIPLY, [rot_wrap, self._mask(program, masks, step, mask_scale, wrap=True)]
            )
            combined = program.make_term(Op.ADD, [kept_in, kept_wrap])
            if term.kernel is not None:
                for node in (rot_in, rot_wrap, kept_in, kept_wrap, combined):
                    node.attributes["kernel"] = term.kernel
            editor.replace_term(term, combined)
        return rewrites

    def _mask(
        self,
        program: Program,
        cache: Dict[Tuple[int, bool], Term],
        step: int,
        scale: float,
        wrap: bool,
    ) -> Term:
        """The 0/1 selector constant for one lane step (shared per step)."""
        key = (step, wrap)
        term = cache.get(key)
        if term is None:
            width = self.lane_width
            values = np.zeros(width, dtype=np.float64)
            if wrap:
                values[width - step :] = 1.0
            else:
                values[: width - step] = 1.0
            term = program.constant(values, scale=scale, value_type=ValueType.VECTOR)
            # Masks are compiler plumbing, not program semantics: the batcher
            # must not let their width (always = lane_width) inflate the
            # output period it reports for the program's real constants.
            term.attributes["lane_mask"] = True
            cache[key] = term
        return term
