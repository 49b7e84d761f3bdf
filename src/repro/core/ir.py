"""In-memory term-graph representation of EVA programs.

A program is a directed acyclic graph (an *abstract semantic graph* in the
paper's terminology, Section 4.3).  Each node is a :class:`Term`; nodes with
incoming edges are instructions, nodes without incoming edges are inputs or
constants.  Outputs are named references to instruction nodes.

Scales are tracked in the log2 domain throughout the package: the ``scale``
attribute of an input/constant/output is ``log2`` of the fixed-point scaling
factor (the paper's Table 4 reports exactly these "logP" values).  Using the
log domain avoids overflow for deep programs whose intermediate scales exceed
the range of IEEE doubles (SqueezeNet's intermediate scales reach 2^1740).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CompilationError
from .instructions import INSTRUCTIONS, Instruction, immediate_of
from .types import Op, ValueType, is_power_of_two, result_type


class Term:
    """A node of the EVA term graph.

    Parameters
    ----------
    op:
        The opcode of the node.  ``Op.INPUT`` and ``Op.CONSTANT`` mark roots.
    args:
        Parameter nodes (the paper's ``n.parms``); empty for roots.
    attributes:
        Opcode-specific attributes:

        ``name``
            input name (inputs only).
        ``value``
            constant payload, a numpy array or scalar (constants only).
        ``scale``
            declared scale in bits (inputs and constants).
        ``rotation``
            step count for ROTATE_LEFT / ROTATE_RIGHT.
        ``rescale_value``
            divisor in bits for RESCALE.
        ``kernel``
            optional label of the high-level kernel this term belongs to
            (used by the CHET-style scheduler to form bulk-synchronous
            groups).
    """

    __slots__ = ("id", "op", "args", "value_type", "attributes")

    _id_counter = itertools.count()

    def __init__(
        self,
        op: Op,
        args: Sequence["Term"] = (),
        value_type: ValueType = ValueType.CIPHER,
        **attributes: Any,
    ) -> None:
        self.id: int = next(Term._id_counter)
        self.op = op
        self.args: List[Term] = list(args)
        self.value_type = value_type
        self.attributes: Dict[str, Any] = dict(attributes)

    # -- convenience accessors -------------------------------------------------
    @property
    def is_input(self) -> bool:
        return self.op is Op.INPUT

    @property
    def is_constant(self) -> bool:
        return self.op is Op.CONSTANT

    @property
    def is_root(self) -> bool:
        return self.op in (Op.INPUT, Op.CONSTANT)

    @property
    def is_instruction(self) -> bool:
        return not self.is_root

    @property
    def instruction(self) -> Instruction:
        """This instruction's row of the instruction table (Table 2)."""
        return INSTRUCTIONS[self.op]

    @property
    def name(self) -> Optional[str]:
        return self.attributes.get("name")

    @property
    def value(self) -> Any:
        return self.attributes.get("value")

    @property
    def scale(self) -> Optional[float]:
        """Declared scale in bits (roots only); instruction scales are derived."""
        return self.attributes.get("scale")

    @scale.setter
    def scale(self, bits: float) -> None:
        self.attributes["scale"] = float(bits)

    @property
    def rotation(self) -> int:
        return int(self.attributes.get("rotation", 0))

    @property
    def rescale_value(self) -> float:
        """Rescale divisor in bits (RESCALE nodes only)."""
        return float(self.attributes.get("rescale_value", 0.0))

    @property
    def kernel(self) -> Optional[str]:
        return self.attributes.get("kernel")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f" {self.name!r}" if self.is_input else ""
        immediate = immediate_of(self.op)
        if immediate:
            extra = f" {immediate}={getattr(self, immediate):g}"
        return f"<Term {self.id} {self.op.name}{extra} {self.value_type.name}>"


class Program:
    """An EVA program: a DAG of :class:`Term` nodes with named inputs and outputs.

    Corresponds to the ``Program`` message of Figure 1: it records the vector
    size shared by all Cipher/Vector values, the inputs, the constants, the
    instructions, and the outputs (with their desired scales, supplied at
    compile time).
    """

    def __init__(self, name: str = "program", vec_size: int = 4096) -> None:
        if not is_power_of_two(vec_size):
            raise CompilationError(
                f"vector size must be a power of two, got {vec_size}"
            )
        self.name = name
        self.vec_size = int(vec_size)
        self.inputs: Dict[str, Term] = {}
        self.outputs: Dict[str, Term] = {}
        #: Desired output scales in bits, keyed by output name (set by callers
        #: of the compiler; optional until compilation).
        self.output_scales: Dict[str, float] = {}

    # -- construction helpers ---------------------------------------------------
    def input(
        self,
        name: str,
        value_type: ValueType = ValueType.CIPHER,
        scale: float = 30.0,
    ) -> Term:
        """Declare a named program input and return its term."""
        if name in self.inputs:
            raise CompilationError(f"duplicate input name {name!r}")
        term = Term(Op.INPUT, (), value_type, name=name, scale=float(scale))
        self.inputs[name] = term
        return term

    def constant(
        self,
        value: Any,
        scale: float = 30.0,
        value_type: Optional[ValueType] = None,
    ) -> Term:
        """Create a constant term holding ``value`` at the given scale (bits)."""
        if value_type is None:
            if np.isscalar(value):
                value_type = ValueType.SCALAR
            else:
                value_type = ValueType.VECTOR
        if value_type is ValueType.CIPHER:
            raise CompilationError("constants cannot have Cipher type")
        if value_type is ValueType.VECTOR:
            value = np.asarray(value, dtype=np.float64)
        return Term(Op.CONSTANT, (), value_type, value=value, scale=float(scale))

    def make_term(self, op: Op, args: Sequence[Term], **attributes: Any) -> Term:
        """Create an instruction term, inferring its result type from ``args``."""
        if op not in INSTRUCTIONS:
            raise CompilationError(f"{op.name} is not an instruction opcode")
        return Term(op, args, result_type(op, [a.value_type for a in args]), **attributes)

    def set_output(self, name: str, term: Term, scale: Optional[float] = None) -> None:
        """Mark ``term`` as a named program output with an optional desired scale."""
        self.outputs[name] = term
        if scale is not None:
            self.output_scales[name] = float(scale)

    # -- graph queries ----------------------------------------------------------
    def sources(self) -> List[Term]:
        """All root nodes reachable from the outputs (inputs and constants)."""
        return [t for t in self.terms() if t.is_root]

    def constants(self) -> List[Term]:
        return [t for t in self.terms() if t.is_constant]

    def instructions(self) -> List[Term]:
        return [t for t in self.terms() if t.is_instruction]

    def terms(self) -> List[Term]:
        """All terms reachable from the outputs, in topological order.

        Parents always precede children; the order is deterministic for a
        given graph (depth-first post-order from the outputs, with ties broken
        by argument position).
        """
        order: List[Term] = []
        seen: set = set()
        # Iterative DFS to avoid recursion limits on deep programs.
        for out in self.outputs.values():
            stack: List[Tuple[Term, int]] = [(out, 0)]
            while stack:
                node, child_idx = stack.pop()
                if node.id in seen:
                    continue
                if child_idx < len(node.args):
                    stack.append((node, child_idx + 1))
                    stack.append((node.args[child_idx], 0))
                else:
                    seen.add(node.id)
                    order.append(node)
        return order

    def uses(self) -> Dict[int, List[Term]]:
        """Map from term id to the list of terms that consume it (its children)."""
        result: Dict[int, List[Term]] = {t.id: [] for t in self.terms()}
        for term in self.terms():
            for arg in term.args:
                result[arg.id].append(term)
        return result

    def multiplicative_depth(self) -> int:
        """Maximum number of MULTIPLY nodes on any root-to-output path."""
        depth: Dict[int, int] = {}
        best = 0
        for term in self.terms():
            d = max((depth[a.id] for a in term.args), default=0)
            if term.op is Op.MULTIPLY:
                d += 1
            depth[term.id] = d
            best = max(best, d)
        return best

    def op_counts(self) -> Dict[Op, int]:
        """Histogram of opcodes over all reachable terms."""
        counts: Dict[Op, int] = {}
        for term in self.terms():
            counts[term.op] = counts.get(term.op, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.terms())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Program {self.name!r} vec_size={self.vec_size} "
            f"terms={len(self)} outputs={list(self.outputs)}>"
        )

    # -- structural validation --------------------------------------------------
    def check_structure(self, frontend_only: bool = False) -> None:
        """Validate basic structural well-formedness of the program.

        Checks acyclicity (implied by reachability-based traversal plus an
        explicit cycle check), arity of every opcode, power-of-two vector
        size, and — when ``frontend_only`` is True — the absence of
        FHE-specific instructions (Table 2's restriction on input programs).
        """
        if not self.outputs:
            raise CompilationError("program has no outputs")
        self._check_acyclic()
        for term in self.terms():
            if term.is_root:
                if term.args:
                    raise CompilationError("input/constant terms cannot have arguments")
                continue
            row = INSTRUCTIONS.get(term.op)
            if row is None:
                raise CompilationError(f"unknown opcode {term.op!r}")
            if len(term.args) != row.arity:
                raise CompilationError(
                    f"{term.op.name} expects {row.arity} arguments, got {len(term.args)}"
                )
            if frontend_only and row.emitted_by == "compiler":
                raise CompilationError(
                    f"{term.op.name} is not allowed in input programs; "
                    "it is inserted by the compiler"
                )
            if row.immediate and row.immediate not in term.attributes:
                raise CompilationError(f"{term.op.name} requires a {row.immediate!r} attribute")
        for name, term in self.outputs.items():
            if term.value_type is not ValueType.CIPHER:
                raise CompilationError(
                    f"output {name!r} must be a Cipher value, got {term.value_type.name}"
                )

    def _check_acyclic(self) -> None:
        state: Dict[int, int] = {}  # 0 = visiting, 1 = done

        for out in self.outputs.values():
            stack: List[Tuple[Term, int]] = [(out, 0)]
            while stack:
                node, idx = stack.pop()
                if state.get(node.id) == 1:
                    continue
                if idx == 0:
                    if state.get(node.id) == 0:
                        raise CompilationError("program graph contains a cycle")
                    state[node.id] = 0
                if idx < len(node.args):
                    stack.append((node, idx + 1))
                    child = node.args[idx]
                    if state.get(child.id) == 0:
                        raise CompilationError("program graph contains a cycle")
                    if state.get(child.id) != 1:
                        stack.append((child, 0))
                else:
                    state[node.id] = 1

    # -- cloning ----------------------------------------------------------------
    def clone(self) -> "Program":
        """Deep-copy the program graph (terms are copied, values are shared)."""
        mapping: Dict[int, Term] = {}
        copy = Program(self.name, self.vec_size)
        for term in self.terms():
            new = Term(
                term.op,
                [mapping[a.id] for a in term.args],
                term.value_type,
                **dict(term.attributes),
            )
            mapping[term.id] = new
        for name, term in self.inputs.items():
            if term.id in mapping:
                copy.inputs[name] = mapping[term.id]
            else:  # input declared but unused; keep the declaration
                copy.inputs[name] = Term(
                    term.op, (), term.value_type, **dict(term.attributes)
                )
        for name, term in self.outputs.items():
            copy.outputs[name] = mapping[term.id]
        copy.output_scales = dict(self.output_scales)
        return copy


class GraphEditor:
    """Helper for structural rewrites of a :class:`Program` graph.

    Maintains a uses (consumer) map so rewrite rules of the form "insert a new
    node between ``n`` and its children" (Figure 4) can be applied in O(degree)
    per rewrite.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.uses: Dict[int, List[Term]] = program.uses()

    def consumers(self, term: Term) -> List[Term]:
        return list(self.uses.get(term.id, ()))

    def replace_arg(self, consumer: Term, old: Term, new: Term) -> None:
        """Replace every occurrence of ``old`` in ``consumer.args`` with ``new``."""
        changed = False
        for i, arg in enumerate(consumer.args):
            if arg is old:
                consumer.args[i] = new
                changed = True
        if changed:
            self.uses.setdefault(old.id, [])
            if consumer in self.uses[old.id]:
                self.uses[old.id] = [c for c in self.uses[old.id] if c is not consumer]
            self.uses.setdefault(new.id, []).append(consumer)

    def insert_after(self, term: Term, new_term: Term, only_consumers: Optional[Iterable[Term]] = None) -> None:
        """Rewire consumers of ``term`` (or a subset) to read from ``new_term``.

        ``new_term`` is expected to already have ``term`` among its arguments.
        Output references to ``term`` are also redirected unless a subset of
        consumers was requested.
        """
        targets = list(self.consumers(term)) if only_consumers is None else list(only_consumers)
        for consumer in targets:
            if consumer is new_term:
                continue
            self.replace_arg(consumer, term, new_term)
        self.uses.setdefault(new_term.id, [])
        for arg in new_term.args:
            self.uses.setdefault(arg.id, [])
            if new_term not in self.uses[arg.id]:
                self.uses[arg.id].append(new_term)
        if only_consumers is None:
            for name, out in self.program.outputs.items():
                if out is term:
                    self.program.outputs[name] = new_term

    def replace_term(self, old: Term, new: Term) -> None:
        """Redirect every consumer of ``old`` (and output references) to ``new``."""
        for consumer in self.consumers(old):
            self.replace_arg(consumer, old, new)
        for name, out in self.program.outputs.items():
            if out is old:
                self.program.outputs[name] = new
        self.uses.setdefault(new.id, [])
