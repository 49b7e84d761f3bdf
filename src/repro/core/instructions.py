"""The instruction table: the paper's Table 2, one :class:`Instruction` row per opcode.

Every layer that needs to know what an opcode means reads its row:

* ``arity``; ``emitted_by`` — ``"frontend"`` (lowered away by the compiler,
  never reaching a backend), ``"compiler"`` (Table 2's "Restrictions") or
  ``"both"``; ``immediate`` — ``"rotation"``, ``"rescale_value"`` or None;
* ``reference`` — the identity-scheme semantics on *periodic* values (an
  operand shorter than ``vec_size`` is one period of the vector it denotes),
  called by ``ReferenceExecutor``, the engine's plaintext path and folding;
* ``scale`` — a rule of ``analysis.scales.SCALE_RULES``; ``consumes_modulus``,
  ``moves_slots``, ``key_switches``; ``cost`` / ``plain_cost`` — the cost
  model's class with all operands encrypted / with a plaintext one;
* ``evaluate(context, term, operands)`` — how ``EvaluationEngine`` runs it on
  a ``BackendContext`` (None where it never reaches a backend).

``Op.NORMALIZE_SCALE`` is in the proto schema but has no row: nothing emits
it, and a program holding it is refused like any unknown opcode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from .types import Op, ValueType


@dataclass(frozen=True)
class Instruction:
    """One opcode's row (see the module docstring for the columns)."""

    arity: int
    emitted_by: str
    reference: Callable[[Any, List[np.ndarray], int], np.ndarray]
    evaluate: Optional[Callable[[Any, Any, List[Any]], Any]] = None
    immediate: Optional[str] = None
    scale: str = "same"
    consumes_modulus: bool = False
    moves_slots: bool = False
    key_switches: bool = False
    cost: str = "add"
    plain_cost: Optional[str] = None

    def cost_kind(self, cipher_operands: int) -> str:
        """The cost model's operation class given the encrypted operand count."""
        if self.plain_cost and cipher_operands < self.arity:
            return self.plain_cost
        return self.cost


def _elementwise(ufunc: Callable) -> Callable:
    """A binary reference: operands of different periods are tiled to their
    common (lcm) period first, e.g. a lane mask meeting a shorter constant."""

    def reference(term, args, vec_size):
        a, b = np.atleast_1d(args[0]), np.atleast_1d(args[1])
        if a.size != b.size:
            period = int(np.lcm(a.size, b.size))
            a, b = np.tile(a, period // a.size), np.tile(b, period // b.size)
        return ufunc(a, b)

    return reference


def _roll(sign: int) -> Callable:
    # Rolling one period rolls the periodic vector: np.roll reduces the step
    # modulo the period, which divides vec_size.
    return lambda term, args, vec_size: np.roll(np.atleast_1d(args[0]), sign * term.rotation)


def _sum(term, args, vec_size):
    # Every repetition of the period counts: SUM adds all vec_size slots.
    period = np.atleast_1d(args[0])
    return np.full(1, np.sum(period) * (vec_size // period.size))


def _identity(term, args, vec_size):
    return args[0]


def _negated(term, args, vec_size):
    return -args[0]


def _unary(method: str, argument: Optional[Callable] = None) -> Callable:
    """Evaluate ``context.<method>(operand[, argument(term)])``."""

    def evaluate(context, term, operands):
        extra = () if argument is None else (argument(term),)
        return getattr(context, method)(operands[0], *extra)

    return evaluate


def _binary(method: str, commutative: bool = True) -> Callable:
    """Evaluate ``context.<method>`` on two ciphertexts, else ``<method>_plain``
    with the ciphertext first (``reverse`` tells a non-commutative op that the
    plaintext was the first operand)."""

    def evaluate(context, term, operands):
        if all(arg.value_type is ValueType.CIPHER for arg in term.args):
            return getattr(context, method)(*operands)
        reverse = term.args[0].value_type is not ValueType.CIPHER
        cipher, plain = operands[::-1] if reverse else operands
        flags = {} if commutative else {"reverse": reverse}
        return getattr(context, method + "_plain")(cipher, plain, **flags)

    return evaluate


INSTRUCTIONS: Dict[Op, Instruction] = {
    Op.NEGATE: Instruction(1, "both", _negated, _unary("negate"), cost="negate"),
    Op.ADD: Instruction(2, "both", _elementwise(np.add), _binary("add"), scale="matched"),
    Op.SUB: Instruction(
        2, "both", _elementwise(np.subtract), _binary("sub", commutative=False), scale="matched"
    ),
    Op.MULTIPLY: Instruction(
        2,
        "both",
        _elementwise(np.multiply),
        _binary("multiply"),
        scale="product",
        cost="multiply",
        plain_cost="multiply_plain",
    ),
    # Lowered into a rotate-and-add tree by ExpandSumPass.
    Op.SUM: Instruction(1, "frontend", _sum, moves_slots=True),
    # Removed by RemoveCopyPass.
    Op.COPY: Instruction(1, "frontend", _identity, cost="negate"),
    Op.ROTATE_LEFT: Instruction(
        1,
        "both",
        _roll(-1),
        _unary("rotate", lambda term: term.rotation),
        immediate="rotation",
        moves_slots=True,
        key_switches=True,
        cost="rotate",
    ),
    Op.ROTATE_RIGHT: Instruction(
        1,
        "both",
        _roll(1),
        _unary("rotate", lambda term: -term.rotation),
        immediate="rotation",
        moves_slots=True,
        key_switches=True,
        cost="rotate",
    ),
    Op.RELINEARIZE: Instruction(
        1, "compiler", _identity, _unary("relinearize"), key_switches=True, cost="relinearize"
    ),
    Op.MOD_SWITCH: Instruction(
        1, "compiler", _identity, _unary("mod_switch"), consumes_modulus=True, cost="mod_switch"
    ),
    Op.RESCALE: Instruction(
        1,
        "compiler",
        _identity,
        _unary("rescale", lambda term: term.rescale_value),
        immediate="rescale_value",
        scale="rescaled",
        consumes_modulus=True,
        cost="rescale",
    ),
}

#: The immediates an instruction may carry, with their types.
IMMEDIATES = {"rotation": int, "rescale_value": float}


def immediate_of(op: Op) -> Optional[str]:
    """The immediate ``op`` carries; None for roots and opcodes without a row."""
    row = INSTRUCTIONS.get(op)
    return row.immediate if row else None
