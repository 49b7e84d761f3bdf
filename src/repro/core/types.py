"""Core enumerations and constants of the EVA language.

The opcodes and object types mirror the Protocol Buffers schema of Figure 1 in
the paper; the enum values equal the proto field numbers so that the
serialization layer can round-trip programs without a translation table.
"""

from __future__ import annotations

import enum

#: Maximum allowed rescale value in bits (`log2 s_f`).  SEAL limits coefficient
#: modulus primes to 60 bits, which is what the paper uses throughout.
DEFAULT_MAX_RESCALE_BITS = 60

#: Default security level (bits) used when selecting encryption parameters.
DEFAULT_SECURITY_LEVEL = 128


class Op(enum.IntEnum):
    """Instruction opcodes of the EVA language (Figure 1 / Table 2).

    What each opcode means — arity, who may emit it, its semantics, scale
    rule and backend evaluation — is its row of
    :data:`repro.core.instructions.INSTRUCTIONS`.
    """

    UNDEFINED = 0
    NEGATE = 1
    ADD = 2
    SUB = 3
    MULTIPLY = 4
    SUM = 5
    COPY = 6
    ROTATE_LEFT = 7
    ROTATE_RIGHT = 8
    RELINEARIZE = 9
    MOD_SWITCH = 10
    RESCALE = 11
    NORMALIZE_SCALE = 12
    # Root pseudo-opcodes (not instructions): used for graph uniformity.
    INPUT = 100
    CONSTANT = 101


class ValueType(enum.IntEnum):
    """Types of values in EVA programs (Table 1).

    ``CIPHER`` is an encrypted vector of fixed-point values, ``VECTOR`` an
    unencrypted vector of doubles, ``SCALAR`` a double, and ``INTEGER`` a
    32-bit signed integer (used only for rotation step counts).
    """

    CIPHER = 1
    VECTOR = 2
    SCALAR = 3
    INTEGER = 4

    @property
    def is_encrypted(self) -> bool:
        return self is ValueType.CIPHER

    @property
    def is_vector(self) -> bool:
        return self in (ValueType.CIPHER, ValueType.VECTOR)


class ObjectType(enum.IntEnum):
    """Serialized object types, matching the proto schema of Figure 1."""

    UNDEFINED_TYPE = 0
    SCALAR_CONST = 1
    SCALAR_PLAIN = 2
    SCALAR_CIPHER = 3
    VECTOR_CONST = 4
    VECTOR_PLAIN = 5
    VECTOR_CIPHER = 6


def object_type_for(value_type: ValueType, is_constant: bool) -> ObjectType:
    """Map an in-memory :class:`ValueType` to its serialized :class:`ObjectType`."""
    if value_type is ValueType.CIPHER:
        return ObjectType.VECTOR_CIPHER
    if value_type is ValueType.VECTOR:
        return ObjectType.VECTOR_CONST if is_constant else ObjectType.VECTOR_PLAIN
    if value_type in (ValueType.SCALAR, ValueType.INTEGER):
        return ObjectType.SCALAR_CONST if is_constant else ObjectType.SCALAR_PLAIN
    return ObjectType.UNDEFINED_TYPE


def value_type_for(object_type: ObjectType) -> ValueType:
    """Map a serialized :class:`ObjectType` back to a :class:`ValueType`."""
    if object_type in (ObjectType.VECTOR_CIPHER, ObjectType.SCALAR_CIPHER):
        return ValueType.CIPHER
    if object_type in (ObjectType.VECTOR_CONST, ObjectType.VECTOR_PLAIN):
        return ValueType.VECTOR
    return ValueType.SCALAR


def result_type(op: Op, arg_types: "list[ValueType]") -> ValueType:
    """Infer the result type of an instruction from its argument types.

    An operation touching at least one ``CIPHER`` operand produces a
    ``CIPHER``; otherwise it produces a ``VECTOR`` (EVA instructions always
    operate element-wise over vectors).
    """
    if any(t is ValueType.CIPHER for t in arg_types):
        return ValueType.CIPHER
    return ValueType.VECTOR


def is_power_of_two(n: int) -> bool:
    """Return True if ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0
