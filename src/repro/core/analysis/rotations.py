"""Rotation-step analysis: key selection, hoisting support, BSGS planning.

Collects the set of distinct rotation step counts used by ROTATE_LEFT and
ROTATE_RIGHT instructions in a program.  Each distinct step requires its own
Galois key, so the executor only generates keys for this set.

Steps are normalized to *left* rotations: a right rotation by ``k`` on a
vector of size ``M`` equals a left rotation by ``M - k`` (EVA replicates
shorter inputs to fill all slots, so vectors are periodic with period
``vec_size`` and the identity holds for the full slot vector as well).

Beyond key selection this module carries the dataflow analysis behind the two
rotation-cost optimizations:

* **Hoisting** (:class:`~repro.core.rewrite.hoisting.RotationHoistingPass`):
  :func:`additive_tree_roots` / :func:`flatten_additive_tree` /
  :func:`decompose_addend` factor a ciphertext sum into *atoms* of the form
  ``c_1 * ... * c_m * core`` where every ``c_i`` is a plaintext constant and
  ``core`` is either a rotation of some source or an opaque subterm.  The
  decomposition only ever peels through ADD and MULTIPLY nodes, so by
  construction no atom crosses a RESCALE, MOD_SWITCH or RELINEARIZE boundary:
  all members of one tree live at the same scale/level context, which is what
  makes ``sum_j c_j * rot_s(y_j) == rot_s(sum_j roll(c_j, s) * y_j)`` a safe
  rewrite.  (The hoisting pass runs before the scale-management passes insert
  any rescales, and the guard keeps it correct even if that ordering changes.)

* **BSGS** (:class:`~repro.core.rewrite.bsgs.BsgsRotationPass`):
  :func:`plan_rotation_steps` decomposes a step set baby-step/giant-step.  For
  a base ``B``, a step ``s = g + b`` with giant ``g = B * (s // B)`` and baby
  ``b = s % B`` lowers ``rot(s)`` to ``rot_b(rot_g(x))``; ``k`` distinct steps
  then need only the union of babies and giants — ``O(sqrt(k))`` Galois keys
  when the steps are dense — at the price of one extra rotation per giant that
  is not already computed as a direct step.  Stencil programs (Sobel/Harris)
  are the best case: their row strides *are* the giants, so the decomposition
  is rotation-neutral while shrinking the key set severalfold.

Lane lowering (:class:`~repro.core.rewrite.lane.LaneLoweringPass`) rewrites a
lane-local rotation by ``k`` into global rotations: the in-lane step ``k`` and
the wrap branch composed after it, whose step every lane step shares
(:func:`lane_wrap_step`, ``vec_size - w``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..instructions import immediate_of
from ..ir import Program, Term
from ..types import Op, ValueType


def normalize_step(op: Op, step: int, vec_size: int) -> int:
    """Normalize a rotation to an equivalent left-rotation step in ``[0, vec_size)``."""
    step = int(step) % vec_size
    if op is Op.ROTATE_RIGHT:
        step = (vec_size - step) % vec_size
    return step


def lane_wrap_step(lane_width: int, vec_size: int) -> int:
    """The shared wrap step of the lane lowering.

    ``rot(k - w)(x) == rot(vec_size - w)(rot(k)(x))``: composing the in-lane
    rotation with a left rotation by ``vec_size - w`` realizes the negative
    branch, so *every* lane step reuses the one step ``vec_size - w``.
    """
    return (int(vec_size) - int(lane_width)) % int(vec_size)


def select_rotation_steps(program: Program) -> List[int]:
    """Return the sorted set of left-rotation steps needing Galois keys."""
    steps: Set[int] = set()
    for term in program.terms():
        if immediate_of(term.op) == "rotation":
            step = normalize_step(term.op, term.rotation, program.vec_size)
            if step != 0:
                steps.add(step)
    return sorted(steps)


# ---------------------------------------------------------------------------
# Additive-tree decomposition (hoisting analysis)
# ---------------------------------------------------------------------------


@dataclass
class AdditiveAtom:
    """One summand of a flattened ciphertext sum: ``prod(constants) * core``.

    When ``step`` is not ``None`` the atom is a *rotation atom*: ``core`` is a
    single-consumer ROTATE term and ``source`` its operand, so the atom's
    value is ``prod(constants) * rot_step(source)`` and it is a candidate for
    hoisting.  Otherwise the atom is opaque (``source is None``).

    ``constants`` are recorded outermost-first, exactly as peeled; rebuilding
    the atom as a chain of multiplies in reverse order reproduces the original
    scale structure without any constant folding.
    """

    constants: Tuple[Term, ...]
    core: Term
    source: Optional[Term] = None
    step: Optional[int] = None

    @property
    def hoistable(self) -> bool:
        return self.step is not None


def is_lane_combine(term: Term) -> bool:
    """True for the ``mask_in*rot + mask_wrap*rot`` ADD emitted by lane lowering.

    These nodes are shared between consumer trees (e.g. Sobel's horizontal and
    vertical gradients both read every lowered tap), so the single-consumer
    guard would normally stop the decomposition at them.  Distributing a
    multiplication over them is still profitable — the distributed constants
    multiply *plaintext* masks, so the ciphertext multiply count is unchanged
    — and the pass therefore treats them as transparent.
    """
    if term.op is not Op.ADD or len(term.args) != 2:
        return False
    for arg in term.args:
        if arg.op is not Op.MULTIPLY:
            return False
        if not any(a.is_constant and a.attributes.get("lane_mask") for a in arg.args):
            return False
    return True


def additive_tree_roots(
    program: Program, uses: Dict[int, int], output_ids: Set[int]
) -> List[Term]:
    """Maximal ciphertext ADD trees: ADD nodes not absorbed by a parent ADD.

    An ADD is absorbed (an interior node of a larger tree) when its single
    consumer is itself a ciphertext ADD; outputs and shared nodes always start
    their own tree.
    """
    parents: Dict[int, List[Term]] = {}
    terms = program.terms()
    for term in terms:
        for arg in term.args:
            parents.setdefault(arg.id, []).append(term)
    roots: List[Term] = []
    for term in terms:
        if term.op is not Op.ADD or term.value_type is not ValueType.CIPHER:
            continue
        if term.id not in output_ids and uses.get(term.id, 0) == 1:
            parent = parents[term.id][0]
            if parent.op is Op.ADD and parent.value_type is ValueType.CIPHER:
                continue  # absorbed into the parent's tree
        roots.append(term)
    return roots


def flatten_additive_tree(
    root: Term, uses: Dict[int, int], output_ids: Set[int]
) -> List[Term]:
    """The addends of ``root``'s maximal ADD tree, single-consumer interior
    ADDs absorbed.  Shared subtrees and outputs stay opaque addends (they are
    live outside this tree and must not be dismantled)."""
    addends: List[Term] = []
    stack = list(root.args)
    while stack:
        node = stack.pop()
        if (
            node.op is Op.ADD
            and node.value_type is ValueType.CIPHER
            and node.id not in output_ids
            and uses.get(node.id, 0) == 1
        ):
            stack.extend(node.args)
        else:
            addends.append(node)
    return addends


def decompose_addend(
    addend: Term,
    uses: Dict[int, int],
    output_ids: Set[int],
    vec_size: int,
) -> List[AdditiveAtom]:
    """Decompose one addend into :class:`AdditiveAtom` summands.

    Peels single-consumer constant multiplications (collecting the constants),
    distributes over single-consumer ADDs and over shared lane-combine ADDs
    (see :func:`is_lane_combine`), and bottoms out at rotation atoms or opaque
    cores.  Only ADD and MULTIPLY are ever traversed, so no atom crosses a
    RESCALE/MOD_SWITCH/RELINEARIZE boundary — every atom provably lives at the
    same level context as the tree root.
    """

    def expand(node: Term, constants: Tuple[Term, ...]) -> List[AdditiveAtom]:
        transparent = (
            node.op is Op.ADD
            and node.value_type is ValueType.CIPHER
            and node.id not in output_ids
            and len(node.args) == 2
            and (uses.get(node.id, 0) == 1 or is_lane_combine(node))
        )
        if transparent:
            return expand(node.args[0], constants) + expand(node.args[1], constants)
        if (
            node.op is Op.MULTIPLY
            and node.value_type is ValueType.CIPHER
            and node.id not in output_ids
            and uses.get(node.id, 0) == 1
            and len(node.args) == 2
        ):
            plain = [a for a in node.args if a.is_constant]
            cipher = [a for a in node.args if not a.is_constant]
            if len(plain) == 1 and len(cipher) == 1:
                return expand(cipher[0], constants + (plain[0],))
        if (
            node.op is Op.ROTATE_LEFT
            and node.value_type is ValueType.CIPHER
            and node.id not in output_ids
            and uses.get(node.id, 0) == 1
        ):
            step = normalize_step(node.op, node.rotation, vec_size)
            if step != 0:
                return [
                    AdditiveAtom(
                        constants=constants,
                        core=node,
                        source=node.args[0],
                        step=step,
                    )
                ]
        return [AdditiveAtom(constants=constants, core=node)]

    return expand(addend, ())


# ---------------------------------------------------------------------------
# Baby-step/giant-step key planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotationPlan:
    """A BSGS decomposition of a rotation-step set.

    ``baby_base`` is the base ``B`` (``None`` means no decomposition: every
    step keeps its direct key).  ``decompositions`` maps each decomposed step
    ``s`` to its ``(giant, baby)`` pair with ``s == giant + baby``;
    ``key_steps`` is the Galois key set the plan needs, and
    ``extra_rotations`` the estimated number of giant rotations that are not
    already computed as direct steps of the program (the runtime price of the
    key savings — zero for stencils whose row strides are the giants).
    """

    steps: Tuple[int, ...]
    baby_base: Optional[int] = None
    decompositions: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    key_steps: Tuple[int, ...] = ()
    extra_rotations: int = 0

    @property
    def decomposed(self) -> bool:
        return bool(self.decompositions)

    def summary(self) -> Dict[str, object]:
        return {
            "baby_base": self.baby_base,
            "steps": len(self.steps),
            "key_steps": len(self.key_steps),
            "extra_rotations": self.extra_rotations,
        }


def _plan_for_base(steps: Sequence[int], base: int, vec_size: int) -> RotationPlan:
    decompositions: Dict[int, Tuple[int, int]] = {}
    keys: Set[int] = set()
    for step in steps:
        giant = (step // base) * base
        baby = step % base
        if giant == 0 or baby == 0:
            keys.add(step)  # pure baby or pure giant: keep the direct key
        else:
            decompositions[step] = (giant, baby)
            keys.add(giant)
            keys.add(baby)
    direct = set(steps) - set(decompositions)
    extra = {giant for giant, _ in decompositions.values()} - direct
    return RotationPlan(
        steps=tuple(steps),
        baby_base=base,
        decompositions=decompositions,
        key_steps=tuple(sorted(keys)),
        extra_rotations=len(extra),
    )


def plan_rotation_steps(
    steps: Iterable[int],
    vec_size: int,
    cost_model=None,
    poly_degree: Optional[int] = None,
    levels: int = 3,
) -> RotationPlan:
    """Pick a BSGS decomposition for a normalized step set.

    The plan is the candidate minimizing the cost model's amortized
    per-session seconds — key generation + upload bytes once per session
    versus extra giant rotations on every evaluation; direct wins ties.
    Candidate bases are the powers of two in ``[2, vec_size / 2]``.
    """
    normalized = sorted({int(s) % int(vec_size) for s in steps} - {0})
    direct = RotationPlan(steps=tuple(normalized), key_steps=tuple(normalized))
    if len(normalized) < 2:
        return direct
    candidates: List[RotationPlan] = []
    base = 2
    while base <= int(vec_size) // 2:
        plan = _plan_for_base(normalized, base, int(vec_size))
        if plan.decomposed:
            candidates.append(plan)
        base *= 2
    if not candidates:
        return direct
    if cost_model is None:
        from ...backend.cost_model import DEFAULT_COST_MODEL

        cost_model = DEFAULT_COST_MODEL
    poly = int(poly_degree) if poly_degree else 2 * int(vec_size)

    def plan_cost(plan: RotationPlan) -> float:
        return cost_model.rotation_plan_seconds(
            len(plan.key_steps), plan.extra_rotations, poly, levels
        )

    best = min(candidates, key=lambda p: (plan_cost(p), p.extra_rotations, p.baby_base))
    return best if plan_cost(best) < plan_cost(direct) else direct
