"""MOD_SWITCH insertion passes (Section 5.3, Figure 4).

After RESCALE insertion, the ciphertext operands of an ADD/SUB/MULTIPLY may
sit at different levels (have consumed different numbers of coefficient-
modulus primes), violating Constraint 1.  MOD_SWITCH brings a ciphertext down
a level without changing its scale.

* :class:`LazyModSwitchPass` inserts the missing MOD_SWITCH operations
  immediately before the consuming instruction, on the deficient operand edge.
* :class:`EagerModSwitchPass` inserts them at the earliest feasible point —
  directly after the producing term — and shares one switch chain among all
  consumers, so subsequent operations (including the consuming ADD itself in
  the paper's x²+x+x example) execute under the smaller modulus and the total
  number of MOD_SWITCH operations is minimized.
"""

from __future__ import annotations

from typing import Dict, List

from ..ir import GraphEditor, Program, Term
from ..types import Op, ValueType
from ..analysis.levels import compute_levels
from .framework import PassContext, RewritePass


def _required_level(consumer: Term, levels: Dict[int, int]) -> int:
    """Level at which ``consumer`` needs its ciphertext operands."""
    return levels[consumer.id] - consumer.instruction.consumes_modulus


def _make_switch_chain(start: Term, length: int, levels: Dict[int, int]) -> List[Term]:
    """Build a chain of ``length`` MOD_SWITCH nodes hanging off ``start``."""
    chain: List[Term] = []
    prev = start
    for i in range(length):
        node = Term(Op.MOD_SWITCH, [prev], ValueType.CIPHER)
        if start.kernel is not None:
            node.attributes["kernel"] = start.kernel
        levels[node.id] = levels[start.id] + i + 1
        chain.append(node)
        prev = node
    return chain


class EagerModSwitchPass(RewritePass):
    """Insert MOD_SWITCH chains as early as possible (EAGER-MODSWITCH).

    For every ciphertext term whose consumers require it at deeper levels than
    it is produced at, a single shared chain of MOD_SWITCH nodes is created
    right after the term, and each consumer is rewired to the chain position
    matching its required level.
    """

    name = "eager-modswitch"
    direction = "backward"

    def run(self, program: Program, context: PassContext) -> int:
        levels = compute_levels(program)
        editor = GraphEditor(program)
        rewrites = 0
        for term in program.terms():
            if term.value_type is not ValueType.CIPHER:
                continue
            consumers = editor.consumers(term)
            if not consumers:
                continue
            deficits: Dict[int, int] = {}
            for consumer in consumers:
                if consumer.id not in levels:
                    continue
                if consumer.instruction.arity < 2 and not consumer.instruction.consumes_modulus:
                    # Unary ops execute at whatever level their operand has;
                    # only binary arithmetic imposes Constraint 1.
                    deficit = 0
                else:
                    deficit = _required_level(consumer, levels) - levels[term.id]
                deficits[consumer.id] = max(deficit, 0)
            max_deficit = max(deficits.values(), default=0)
            if max_deficit <= 0:
                continue
            chain = _make_switch_chain(term, max_deficit, levels)
            editor.uses.setdefault(term.id, []).append(chain[0])
            for i, node in enumerate(chain):
                editor.uses.setdefault(node.id, [])
                if i > 0:
                    editor.uses[chain[i - 1].id].append(node)
            for consumer in consumers:
                deficit = deficits.get(consumer.id, 0)
                if deficit > 0:
                    editor.replace_arg(consumer, term, chain[deficit - 1])
            rewrites += max_deficit
        return rewrites


class LazyModSwitchPass(RewritePass):
    """Insert MOD_SWITCH chains right before the consuming instruction (LAZY-MODSWITCH)."""

    name = "lazy-modswitch"
    direction = "forward"

    def run(self, program: Program, context: PassContext) -> int:
        levels = compute_levels(program)
        editor = GraphEditor(program)
        rewrites = 0
        for term in program.terms():
            cipher_args = [a for a in term.args if a.value_type is ValueType.CIPHER]
            if len(cipher_args) < 2:
                continue
            target = levels[term.id]
            for arg in list(dict.fromkeys(cipher_args)):
                deficit = target - levels[arg.id]
                if deficit <= 0:
                    continue
                chain = _make_switch_chain(arg, deficit, levels)
                editor.uses.setdefault(arg.id, []).append(chain[0])
                for i, node in enumerate(chain):
                    editor.uses.setdefault(node.id, [])
                    if i > 0:
                        editor.uses[chain[i - 1].id].append(node)
                editor.replace_arg(term, arg, chain[-1])
                rewrites += deficit
        return rewrites
