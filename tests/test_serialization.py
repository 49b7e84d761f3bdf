"""Tests for program serialization (proto3 wire format and JSON)."""

import numpy as np
import pytest

from repro.core.serialization import json_format, load, proto, save
from repro.core.serialization.wire import (
    decode_varint,
    encode_varint,
    encode_varint_field,
    iter_fields,
    unpack_doubles,
)
from repro.core import compile_program, execute_reference
from repro.core.ir import Program
from repro.core.types import Op, ValueType
from repro.errors import SerializationError
from repro.frontend import EvaProgram, input_encrypted, output


def make_rich_program() -> Program:
    program = Program("rich", vec_size=16)
    x = program.input("x", ValueType.CIPHER, scale=30)
    mask = program.constant(np.linspace(0, 1, 16), scale=15)
    k = program.constant(0.5, scale=10)
    rotated = program.make_term(Op.ROTATE_LEFT, [x], rotation=3)
    masked = program.make_term(Op.MULTIPLY, [rotated, mask])
    shifted = program.make_term(Op.ROTATE_RIGHT, [masked], rotation=2)
    scaled = program.make_term(Op.MULTIPLY, [shifted, k])
    total = program.make_term(Op.ADD, [scaled, x])
    program.set_output("out", total, scale=30)
    return program


class TestVarints:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63])
    def test_roundtrip(self, value):
        data = encode_varint(value)
        decoded, offset = decode_varint(data, 0)
        assert decoded == value
        assert offset == len(data)

    def test_negative_rejected(self):
        with pytest.raises(SerializationError):
            encode_varint(-1)

    def test_truncated_varint_rejected(self):
        with pytest.raises(SerializationError):
            decode_varint(b"\x80", 0)

    def test_iter_fields_skips_unknown_fields(self):
        payload = encode_varint_field(99, 7) + encode_varint_field(1, 42)
        fields = {number: value for number, _, value in iter_fields(payload)}
        assert fields[1] == 42
        assert fields[99] == 7

    def test_unpack_doubles_validates_length(self):
        with pytest.raises(SerializationError):
            unpack_doubles(b"\x00" * 7)


class TestProtoRoundTrip:
    def test_structure_preserved(self):
        program = make_rich_program()
        restored = proto.deserialize(proto.serialize(program))
        assert restored.vec_size == program.vec_size
        assert list(restored.outputs) == ["out"]
        assert restored.op_counts()[Op.MULTIPLY] == program.op_counts()[Op.MULTIPLY]
        assert restored.op_counts()[Op.ROTATE_LEFT] == 1
        assert restored.op_counts()[Op.ROTATE_RIGHT] == 1

    def test_semantics_preserved(self):
        program = make_rich_program()
        restored = proto.deserialize(proto.serialize(program))
        inputs = {"x": np.linspace(-1, 1, 16)}
        np.testing.assert_allclose(
            execute_reference(restored, inputs)["out"],
            execute_reference(program, inputs)["out"],
        )

    def test_rotation_attributes_preserved(self):
        program = make_rich_program()
        restored = proto.deserialize(proto.serialize(program))
        rotations = sorted(
            t.rotation for t in restored.terms() if t.op in (Op.ROTATE_LEFT, Op.ROTATE_RIGHT)
        )
        assert rotations == [2, 3]

    def test_input_scales_preserved(self):
        program = make_rich_program()
        restored = proto.deserialize(proto.serialize(program))
        assert restored.inputs["x"].scale == 30

    def test_compiled_program_roundtrip(self, x2y3_program):
        compiled = compile_program(x2y3_program).program
        restored = proto.deserialize(proto.serialize(compiled))
        assert restored.op_counts()[Op.RESCALE] == compiled.op_counts()[Op.RESCALE]
        rescale_values = sorted(
            t.rescale_value for t in restored.terms() if t.op is Op.RESCALE
        )
        assert all(v == 60.0 for v in rescale_values)

    def test_malformed_bytes_rejected(self):
        with pytest.raises(SerializationError):
            proto.deserialize(b"")  # no vec_size

    def test_missing_argument_reference_rejected(self):
        message = proto.ProgramMessage(vec_size=8)
        message.instructions.append(proto.InstructionMessage(5, Op.NEGATE, [99]))
        message.outputs.append(proto.OutputMessage(5, 30.0, "out"))
        with pytest.raises(SerializationError):
            proto.message_to_program(message)


class TestJsonRoundTrip:
    def test_roundtrip_semantics(self):
        program = make_rich_program()
        restored = json_format.loads(json_format.dumps(program))
        inputs = {"x": np.linspace(-1, 1, 16)}
        np.testing.assert_allclose(
            execute_reference(restored, inputs)["out"],
            execute_reference(program, inputs)["out"],
        )

    def test_kernel_labels_preserved(self):
        program = EvaProgram("k", vec_size=8, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            with program.kernel("layer1"):
                y = x * x
            output("y", y, 25)
        restored = json_format.loads(json_format.dumps(program.graph))
        kernels = {t.kernel for t in restored.terms() if t.is_instruction}
        assert "layer1" in kernels

    def test_malformed_dict_rejected(self):
        with pytest.raises(SerializationError):
            json_format.dict_to_program({"nodes": []})


class TestFileIO:
    def test_save_and_load_binary(self, tmp_path):
        program = make_rich_program()
        path = tmp_path / "program.evaproto"
        save(program, path)
        restored = load(path)
        assert restored.vec_size == 16

    def test_save_and_load_json(self, tmp_path):
        program = make_rich_program()
        path = tmp_path / "program.json"
        save(program, path)
        restored = load(path)
        assert list(restored.outputs) == ["out"]

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load(tmp_path / "missing.evaproto")


class TestBase64Packing:
    """The base64 array packing behind the cipher/key JSON codecs."""

    def test_int_roundtrip_fidelity(self):
        from repro.core.serialization import packing

        rng = np.random.default_rng(0)
        for shape in [(7,), (3, 8), (2, 1, 5)]:
            array = rng.integers(0, 2**30, size=shape, dtype=np.int64)
            wire = packing.pack_residues(array)
            restored = packing.unpack_residues(wire)
            assert restored.dtype == np.int64
            np.testing.assert_array_equal(restored, array)

    def test_float_roundtrip_fidelity(self):
        from repro.core.serialization import packing

        values = np.random.default_rng(1).normal(size=33)
        restored = packing.unpack_values(packing.pack_values(values))
        np.testing.assert_array_equal(restored, values)  # bit-exact

    def test_minimal_width_selection(self):
        from repro.core.serialization import packing

        assert packing.pack_array([0, 255], dtype=np.int64)["dtype"] == "u1"
        assert packing.pack_array([0, 65535], dtype=np.int64)["dtype"] == "u2"
        assert packing.pack_array([0, 2**30], dtype=np.int64)["dtype"] == "u4"
        assert packing.pack_array([0, 2**40], dtype=np.int64)["dtype"] == "i8"
        assert packing.pack_array([-1, 5], dtype=np.int64)["dtype"] == "i8"

    def test_legacy_lists_still_decode(self):
        from repro.core.serialization import packing

        np.testing.assert_array_equal(
            packing.unpack_residues([[1, 2], [3, 4]]), np.array([[1, 2], [3, 4]])
        )
        np.testing.assert_array_equal(
            packing.unpack_values([1.5, 2.5]), np.array([1.5, 2.5])
        )

    def test_malformed_payloads_rejected(self):
        from repro.core.serialization import packing

        with pytest.raises(SerializationError):
            packing.unpack_array({"b64": "!!!not base64!!!", "dtype": "i8"})
        with pytest.raises(SerializationError):
            packing.unpack_array({"b64": "AAAA", "dtype": "nope"})
        with pytest.raises(SerializationError):
            # 3 bytes of payload cannot be a [4] u1... declared as i8 shape [4]
            packing.unpack_array({"b64": "AAAA", "dtype": "i8", "shape": [4]})

    def test_mock_cipher_codec_packs_and_accepts_legacy(self):
        import json

        from repro.backend import MockBackend
        from repro.core import compile_program as _compile
        from repro.frontend import EvaProgram as _EvaProgram

        program = _EvaProgram("p", vec_size=8, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("y", x * x, 25)
        compilation = _compile(program.graph)
        context = MockBackend(error_model="none").create_context(compilation.parameters)
        context.generate_keys()
        handle = context.encrypt(np.linspace(-1, 1, 8), 25)
        wire = json.loads(json.dumps(context.encode_cipher(handle)))
        assert "b64" in wire["values"]
        restored = context.decode_cipher(wire)
        np.testing.assert_array_equal(restored.values, handle.values)
        # Legacy wire format (plain float list) still decodes.
        legacy = dict(wire)
        legacy["values"] = [float(v) for v in handle.values]
        np.testing.assert_array_equal(
            context.decode_cipher(legacy).values, handle.values
        )

    def test_ckks_key_blob_smaller_than_legacy(self):
        import json

        from repro.backend import CkksBackend
        from repro.core import CompilerOptions as _Options
        from repro.core import compile_program as _compile
        from repro.core.serialization import packing
        from repro.frontend import EvaProgram as _EvaProgram

        program = _EvaProgram("p", vec_size=8, default_scale=20)
        with program:
            x = input_encrypted("x", 20)
            output("y", (x << 1) * x, 20)
        compilation = _compile(program.graph, options=_Options(max_rescale_bits=25))
        backend = CkksBackend(seed=0, enforce_security=False)
        context = backend.create_context(compilation.parameters)
        context.generate_keys()
        blob = context.export_evaluation_keys()
        packed_size = len(json.dumps(blob))

        def as_legacy(obj):
            if isinstance(obj, dict) and "b64" in obj:
                return packing.unpack_residues(obj).tolist()
            if isinstance(obj, dict):
                return {k: as_legacy(v) for k, v in obj.items()}
            if isinstance(obj, list):
                return [as_legacy(v) for v in obj]
            return obj

        legacy_size = len(json.dumps(as_legacy(blob)))
        assert packed_size < 0.7 * legacy_size
        # Fidelity: a fresh context imports the packed blob and cannot decrypt.
        fresh = backend.create_context(compilation.parameters)
        fresh.import_evaluation_keys(json.loads(json.dumps(blob)))
        assert fresh.has_secret_key is False
