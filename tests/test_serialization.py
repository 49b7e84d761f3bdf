"""Tests for program serialization: the proto3 format of Figure 1, the one
serialized form of a program."""

import random
import time

import numpy as np
import pytest

from repro.core.serialization import load, proto, save
from repro.core.serialization.wire import (
    decode_varint,
    encode_varint,
    encode_varint_field,
    iter_fields,
    unpack_doubles,
)
from compiled_corpus import CASES
from test_instructions import assert_round_trips

from repro.core import CompilerOptions, compile_program, execute_reference
from repro.core.compiler import CompilationResult, frontend_graph
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

    def test_damaged_bytes_are_a_serialization_error(self):
        """Whatever a damaged file holds, the reader raises its one typed error."""
        data = proto.serialize(make_rich_program())
        rng = random.Random(7)
        for _ in range(2000):
            damaged = bytearray(data)
            for _ in range(rng.randint(1, 4)):
                damaged[rng.randrange(len(damaged))] = rng.randrange(256)
            cut = rng.choice([len(damaged), rng.randrange(len(damaged))])
            try:
                proto.deserialize(bytes(damaged[:cut]))
            except SerializationError:
                pass

    def test_missing_argument_reference_rejected(self):
        message = proto.ProgramMessage(vec_size=8)
        message.instructions.append(proto.InstructionMessage(5, Op.NEGATE, [99]))
        message.outputs.append(proto.OutputMessage(5, 30.0, "out"))
        with pytest.raises(SerializationError):
            proto.message_to_program(message)

    def test_writer_is_linear_in_the_program_size(self):
        # 80k one-operand instructions, 1.2 MB of proto: about 1 s on a 2-core
        # x86 host.  Growing one bytes object per instruction took 21 s there.
        message = proto.ProgramMessage(vec_size=8)
        message.instructions.extend(
            proto.InstructionMessage(i + 1, Op.NEGATE, [i]) for i in range(80_000)
        )
        start = time.perf_counter()
        payload = message.to_bytes()
        assert time.perf_counter() - start < 6.0
        assert len(payload) == 1_246_980


def one_element_vector():
    program = Program("one_element_vector", vec_size=8)
    x = program.input("x", ValueType.CIPHER, scale=30)
    weight = program.constant(np.array([2.0]), scale=20)
    program.set_output("y", program.make_term(Op.MULTIPLY, [x, weight]), scale=30)
    return program, CompilerOptions()


#: The compiled corpus (the LeNets carry kernel labels) plus a one-element
#: vector constant, which must not come back a scalar.
SIGNATURE_CASES = dict(CASES, one_element_vector=one_element_vector)


class TestProtoKeepsTheSignature:
    """Proto bytes are how a cluster ships programs to its shards and how
    ``cli serve`` / ``run`` load them, so the program they decode to must
    hash to the same signature as the one that was written, or a shard
    compiles something else and refuses the client's bundle."""

    @pytest.mark.parametrize("name", sorted(SIGNATURE_CASES))
    def test_source_and_compiled_graph(self, name):
        program, options = SIGNATURE_CASES[name]()
        graph = frontend_graph(program)
        assert_round_trips(graph)
        assert_round_trips(CompilationResult.compile(graph, options=options).program)


class TestFieldsSurvive:
    """Programs as the frontend and the tests build them, field for field
    (``test_instructions.TestEveryFieldSurvives`` covers each row)."""

    def test_rich_program(self):
        assert_round_trips(make_rich_program())

    def test_kernel_labels_from_the_frontend(self):
        program = EvaProgram("k", vec_size=8, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            with program.kernel("layer1"):
                y = x * x
            output("y", y, 25)
        restored = assert_round_trips(program.graph)
        assert {t.kernel for t in restored.terms() if t.is_instruction} == {"layer1"}


class TestFileIO:
    def test_save_and_load_binary(self, tmp_path):
        program = make_rich_program()
        path = tmp_path / "program.evaproto"
        save(program, path)
        restored = load(path)
        assert restored.vec_size == 16

    def test_save_writes_the_proto_whatever_the_suffix(self, tmp_path):
        program = make_rich_program()
        path = tmp_path / "program.json"
        save(program, path)
        assert path.read_bytes() == proto.serialize(program)
        assert list(load(path).outputs) == ["out"]

    @pytest.mark.parametrize(
        "text",
        ['{"name": "p", "vec_size": 8, "nodes": [], "outputs": []}', "[1, 2, 3]", "not a program"],
        ids=["json-program", "json-list", "text"],
    )
    def test_a_file_that_is_not_a_proto_is_a_serialization_error(self, tmp_path, text):
        path = tmp_path / "program.json"
        path.write_text(text)
        with pytest.raises(SerializationError):
            load(path)

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
