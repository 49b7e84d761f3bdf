"""Unit tests for the opcode and type enumerations."""

import pytest

from repro.core.instructions import INSTRUCTIONS
from repro.core.types import (
    ObjectType,
    Op,
    ValueType,
    is_power_of_two,
    object_type_for,
    result_type,
    value_type_for,
)


class TestOp:
    """What used to be ``Op`` properties is read off the instruction rows."""

    def test_fhe_specific_ops_are_not_frontend_ops(self):
        for op in (Op.RELINEARIZE, Op.MOD_SWITCH, Op.RESCALE):
            assert INSTRUCTIONS[op].emitted_by == "compiler"
        assert Op.NORMALIZE_SCALE not in INSTRUCTIONS  # nothing emits it

    def test_frontend_ops(self):
        for op in (Op.NEGATE, Op.ADD, Op.SUB, Op.MULTIPLY, Op.ROTATE_LEFT, Op.ROTATE_RIGHT, Op.SUM):
            assert INSTRUCTIONS[op].emitted_by in ("frontend", "both")
        assert {op for op, row in INSTRUCTIONS.items() if row.emitted_by == "frontend"} == {
            Op.SUM,
            Op.COPY,
        }

    def test_roots_are_not_instructions(self):
        assert Op.INPUT not in INSTRUCTIONS
        assert Op.CONSTANT not in INSTRUCTIONS

    def test_rotation_classification(self):
        rotations = {op for op, row in INSTRUCTIONS.items() if row.immediate == "rotation"}
        assert rotations == {Op.ROTATE_LEFT, Op.ROTATE_RIGHT}

    def test_additive_and_binary(self):
        matched = {op for op, row in INSTRUCTIONS.items() if row.scale == "matched"}
        assert matched == {Op.ADD, Op.SUB}
        binary = {op for op, row in INSTRUCTIONS.items() if row.arity == 2}
        assert binary == {Op.ADD, Op.SUB, Op.MULTIPLY}

    def test_modulus_changing_ops(self):
        consuming = {op for op, row in INSTRUCTIONS.items() if row.consumes_modulus}
        assert consuming == {Op.RESCALE, Op.MOD_SWITCH}

    def test_opcode_values_match_proto_schema(self):
        # Field numbers from Figure 1 of the paper.
        assert Op.NEGATE == 1
        assert Op.ADD == 2
        assert Op.SUB == 3
        assert Op.MULTIPLY == 4
        assert Op.SUM == 5
        assert Op.COPY == 6
        assert Op.ROTATE_LEFT == 7
        assert Op.ROTATE_RIGHT == 8
        assert Op.RELINEARIZE == 9
        assert Op.MOD_SWITCH == 10
        assert Op.RESCALE == 11


class TestValueType:
    def test_cipher_is_encrypted(self):
        assert ValueType.CIPHER.is_encrypted
        assert not ValueType.VECTOR.is_encrypted

    def test_vector_types(self):
        assert ValueType.CIPHER.is_vector
        assert ValueType.VECTOR.is_vector
        assert not ValueType.SCALAR.is_vector

    @pytest.mark.parametrize(
        "types,expected",
        [
            ([ValueType.CIPHER, ValueType.VECTOR], ValueType.CIPHER),
            ([ValueType.VECTOR, ValueType.SCALAR], ValueType.VECTOR),
            ([ValueType.CIPHER, ValueType.CIPHER], ValueType.CIPHER),
        ],
    )
    def test_result_type(self, types, expected):
        assert result_type(Op.ADD, types) is expected


class TestObjectTypeMapping:
    @pytest.mark.parametrize(
        "value_type,is_constant,expected",
        [
            (ValueType.CIPHER, False, ObjectType.VECTOR_CIPHER),
            (ValueType.VECTOR, True, ObjectType.VECTOR_CONST),
            (ValueType.VECTOR, False, ObjectType.VECTOR_PLAIN),
            (ValueType.SCALAR, True, ObjectType.SCALAR_CONST),
        ],
    )
    def test_object_type_for(self, value_type, is_constant, expected):
        assert object_type_for(value_type, is_constant) is expected

    @pytest.mark.parametrize(
        "object_type,expected",
        [
            (ObjectType.VECTOR_CIPHER, ValueType.CIPHER),
            (ObjectType.VECTOR_CONST, ValueType.VECTOR),
            (ObjectType.SCALAR_PLAIN, ValueType.SCALAR),
        ],
    )
    def test_value_type_for(self, object_type, expected):
        assert value_type_for(object_type) is expected

    def test_round_trip(self):
        for value_type in (ValueType.CIPHER, ValueType.VECTOR):
            assert value_type_for(object_type_for(value_type, False)) is value_type


class TestPowerOfTwo:
    @pytest.mark.parametrize("n", [1, 2, 4, 1024, 65536])
    def test_powers(self, n):
        assert is_power_of_two(n)

    @pytest.mark.parametrize("n", [0, -2, 3, 6, 1000])
    def test_non_powers(self, n):
        assert not is_power_of_two(n)
