"""EVA program serialization in the Protocol Buffers schema of Figure 1.

The one serialized form of a program: what ``save`` writes, a cluster ships
to its shards, a compiled record stores (base64) and ``program_signature``
hashes.  Each message has one writer (``to_bytes``) and one reader.

The message layout follows the paper's ``EVA.proto`` definition exactly
(field numbers included); backward-compatible extension fields are added so
that round-tripping through the binary format is lossless for this
implementation (a reader that does not know one skips it):

* ``Input.name = 15`` and ``Output.name = 15`` carry the symbolic names the
  Python frontend uses (the original schema identifies inputs and outputs
  positionally).
* ``Constant.lane_mask = 15`` marks the 0/1 selector constants inserted by
  the lane-lowering pass (compiler plumbing the slot batcher must ignore
  when deriving the program's output period).
* ``Instruction.kernel = 15`` carries the label of the tensor kernel an
  instruction belongs to (CHET's per-kernel rescaling and the ``kernel``
  schedule read it, so it changes what a program compiles to).

A constant's value type is its ``ObjectType``: a one-element vector constant
stays a vector.

Rotation step counts and rescale divisors are represented as scalar-constant
arguments of their instructions, matching the instruction signatures of
Table 2 (``ROTATE: Cipher × Integer``, ``RESCALE: Cipher × Scalar``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ...errors import CompilationError, SerializationError
from ..instructions import IMMEDIATES, immediate_of
from ..ir import Program, Term
from ..types import ObjectType, Op, ValueType, object_type_for, value_type_for
from . import wire


@dataclass
class ConstantMessage:
    obj_id: int
    type: ObjectType
    scale: float
    elements: List[float]
    lane_mask: bool = False

    def to_bytes(self) -> bytes:
        payload = wire.encode_bytes_field(1, wire.encode_varint_field(1, self.obj_id))
        payload += wire.encode_varint_field(2, int(self.type))
        payload += wire.encode_double_field(3, self.scale)
        payload += wire.encode_bytes_field(4, wire.encode_packed_doubles(1, self.elements))
        if self.lane_mask:
            payload += wire.encode_varint_field(15, 1)
        return payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "ConstantMessage":
        obj_id, type_, scale, elements = 0, ObjectType.UNDEFINED_TYPE, 0.0, []
        lane_mask = False
        for number, _, raw in wire.iter_fields(data):
            if number == 1:
                obj_id = _decode_object(raw)
            elif number == 2:
                type_ = ObjectType(int(raw))
            elif number == 3:
                scale = wire.unpack_double(raw)
            elif number == 4:
                elements = _decode_vector(raw)
            elif number == 15:
                lane_mask = bool(int(raw))
        return cls(obj_id, type_, scale, elements, lane_mask)


@dataclass
class InputMessage:
    obj_id: int
    type: ObjectType
    scale: float
    name: str = ""

    def to_bytes(self) -> bytes:
        payload = wire.encode_bytes_field(1, wire.encode_varint_field(1, self.obj_id))
        payload += wire.encode_varint_field(2, int(self.type))
        payload += wire.encode_double_field(3, self.scale)
        if self.name:
            payload += wire.encode_string_field(15, self.name)
        return payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "InputMessage":
        obj_id, type_, scale, name = 0, ObjectType.UNDEFINED_TYPE, 0.0, ""
        for number, _, raw in wire.iter_fields(data):
            if number == 1:
                obj_id = _decode_object(raw)
            elif number == 2:
                type_ = ObjectType(int(raw))
            elif number == 3:
                scale = wire.unpack_double(raw)
            elif number == 15:
                name = bytes(raw).decode("utf-8")
        return cls(obj_id, type_, scale, name)


@dataclass
class OutputMessage:
    obj_id: int
    scale: float
    name: str = ""

    def to_bytes(self) -> bytes:
        payload = wire.encode_bytes_field(1, wire.encode_varint_field(1, self.obj_id))
        payload += wire.encode_double_field(2, self.scale)
        if self.name:
            payload += wire.encode_string_field(15, self.name)
        return payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "OutputMessage":
        obj_id, scale, name = 0, 0.0, ""
        for number, _, raw in wire.iter_fields(data):
            if number == 1:
                obj_id = _decode_object(raw)
            elif number == 2:
                scale = wire.unpack_double(raw)
            elif number == 15:
                name = bytes(raw).decode("utf-8")
        return cls(obj_id, scale, name)


@dataclass
class InstructionMessage:
    output_id: int
    op_code: Op
    arg_ids: List[int] = field(default_factory=list)
    kernel: str = ""

    def to_bytes(self) -> bytes:
        payload = wire.encode_bytes_field(1, wire.encode_varint_field(1, self.output_id))
        payload += wire.encode_varint_field(2, int(self.op_code))
        for arg in self.arg_ids:
            payload += wire.encode_bytes_field(3, wire.encode_varint_field(1, arg))
        if self.kernel:
            payload += wire.encode_string_field(15, self.kernel)
        return payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "InstructionMessage":
        output_id, op_code, args, kernel = 0, Op.UNDEFINED, [], ""
        for number, _, raw in wire.iter_fields(data):
            if number == 1:
                output_id = _decode_object(raw)
            elif number == 2:
                op_code = Op(int(raw))
            elif number == 3:
                args.append(_decode_object(raw))
            elif number == 15:
                kernel = bytes(raw).decode("utf-8")
        return cls(output_id, op_code, args, kernel)


@dataclass
class ProgramMessage:
    vec_size: int
    constants: List[ConstantMessage] = field(default_factory=list)
    inputs: List[InputMessage] = field(default_factory=list)
    outputs: List[OutputMessage] = field(default_factory=list)
    instructions: List[InstructionMessage] = field(default_factory=list)

    def to_bytes(self) -> bytes:
        # One join, not ``+=`` per message: growing one bytes object is
        # quadratic in the program size.
        parts = [wire.encode_varint_field(1, self.vec_size)]
        for number, messages in (
            (2, self.constants), (3, self.inputs), (4, self.outputs), (5, self.instructions)
        ):
            parts.extend(wire.encode_bytes_field(number, m.to_bytes()) for m in messages)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProgramMessage":
        message = cls(vec_size=0)
        for number, _, raw in wire.iter_fields(data):
            if number == 1:
                message.vec_size = int(raw)
            elif number == 2:
                message.constants.append(ConstantMessage.from_bytes(raw))
            elif number == 3:
                message.inputs.append(InputMessage.from_bytes(raw))
            elif number == 4:
                message.outputs.append(OutputMessage.from_bytes(raw))
            elif number == 5:
                message.instructions.append(InstructionMessage.from_bytes(raw))
        return message


def _decode_object(raw: object) -> int:
    if not isinstance(raw, (bytes, bytearray)):
        raise SerializationError("expected an embedded Object message")
    for number, _, value in wire.iter_fields(bytes(raw)):
        if number == 1:
            return int(value)
    return 0


def _decode_vector(raw: object) -> List[float]:
    if not isinstance(raw, (bytes, bytearray)):
        raise SerializationError("expected an embedded Vector message")
    for number, _, value in wire.iter_fields(bytes(raw)):
        if number == 1 and isinstance(value, (bytes, bytearray)):
            return wire.unpack_doubles(bytes(value))
    return []


# ---------------------------------------------------------------------------
# Conversion between the in-memory graph and the proto message.
# ---------------------------------------------------------------------------

def program_to_message(program: Program) -> ProgramMessage:
    """Convert an in-memory :class:`Program` into a :class:`ProgramMessage`."""
    message = ProgramMessage(vec_size=program.vec_size)
    ids: Dict[int, int] = {}
    next_id = 1

    def assign(term: Term) -> int:
        nonlocal next_id
        if term.id not in ids:
            ids[term.id] = next_id
            next_id += 1
        return ids[term.id]

    terms = program.terms()
    for term in terms:
        obj_id = assign(term)
        if term.is_input:
            message.inputs.append(
                InputMessage(
                    obj_id,
                    object_type_for(term.value_type, is_constant=False),
                    float(term.scale or 0.0),
                    name=term.name or "",
                )
            )
        elif term.is_constant:
            value = np.atleast_1d(np.asarray(term.value, dtype=np.float64)).ravel()
            message.constants.append(
                ConstantMessage(
                    obj_id,
                    object_type_for(term.value_type, is_constant=True),
                    float(term.scale or 0.0),
                    [float(v) for v in value],
                    lane_mask=bool(term.attributes.get("lane_mask")),
                )
            )

    def scalar_constant(value: float) -> int:
        nonlocal next_id
        obj_id = next_id
        next_id += 1
        message.constants.append(
            ConstantMessage(obj_id, ObjectType.SCALAR_CONST, 0.0, [float(value)])
        )
        return obj_id

    for term in terms:
        if not term.is_instruction:
            continue
        arg_ids = [ids[a.id] for a in term.args]
        immediate = immediate_of(term.op)
        if immediate:
            arg_ids.append(scalar_constant(getattr(term, immediate)))
        message.instructions.append(
            InstructionMessage(ids[term.id], term.op, arg_ids, kernel=term.kernel or "")
        )

    for name, term in program.outputs.items():
        message.outputs.append(
            OutputMessage(ids[term.id], float(program.output_scales.get(name, 0.0)), name)
        )
    return message


def message_to_program(message: ProgramMessage, name: str = "program") -> Program:
    """Reconstruct an in-memory :class:`Program` from a :class:`ProgramMessage`."""
    if message.vec_size <= 0:
        raise SerializationError("program message has no vector size")
    program = Program(name, vec_size=message.vec_size)
    terms: Dict[int, Term] = {}
    scalar_values: Dict[int, float] = {}

    for index, inp in enumerate(message.inputs):
        input_name = inp.name or f"input_{index}"
        term = program.input(input_name, value_type_for(inp.type), scale=inp.scale)
        terms[inp.obj_id] = term
    for constant in message.constants:
        value_type = value_type_for(constant.type)
        if value_type is ValueType.SCALAR:
            value = float(constant.elements[0]) if constant.elements else 0.0
            scalar_values[constant.obj_id] = value
            term = program.constant(value, scale=constant.scale, value_type=ValueType.SCALAR)
        else:
            term = program.constant(
                np.asarray(constant.elements, dtype=np.float64),
                scale=constant.scale,
                value_type=ValueType.VECTOR,
            )
        if constant.lane_mask:
            term.attributes["lane_mask"] = True
        terms[constant.obj_id] = term

    for inst in message.instructions:
        immediate = immediate_of(inst.op_code)
        arg_ids, attributes = inst.arg_ids, {}
        if immediate:
            if len(arg_ids) < 2:
                raise SerializationError(
                    f"{inst.op_code.name} instruction is missing its scalar argument"
                )
            scalar = scalar_values.get(arg_ids[-1])
            if scalar is None:
                raise SerializationError(
                    f"{inst.op_code.name} refers to a non-scalar constant argument"
                )
            arg_ids, attributes = arg_ids[:-1], {immediate: IMMEDIATES[immediate](scalar)}
        if inst.kernel:
            attributes["kernel"] = inst.kernel
        args = [_lookup(terms, i) for i in arg_ids]
        terms[inst.output_id] = program.make_term(inst.op_code, args, **attributes)

    for index, out in enumerate(message.outputs):
        output_name = out.name or f"output_{index}"
        program.set_output(output_name, _lookup(terms, out.obj_id), scale=out.scale)
    return program


def _lookup(terms: Dict[int, Term], obj_id: int) -> Term:
    term = terms.get(obj_id)
    if term is None:
        raise SerializationError(f"instruction refers to unknown object id {obj_id}")
    return term


def serialize(program: Program) -> bytes:
    """Serialize a program to the binary proto3 wire format."""
    return program_to_message(program).to_bytes()


def deserialize(data: bytes, name: str = "program") -> Program:
    """Deserialize a program from proto3 bytes; other bytes raise :class:`SerializationError`."""
    try:
        return message_to_program(ProgramMessage.from_bytes(data), name=name)
    except (ValueError, TypeError, CompilationError) as exc:
        raise SerializationError(f"malformed program: {type(exc).__name__}: {exc}") from exc
