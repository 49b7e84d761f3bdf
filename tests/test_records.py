"""One value, one record, one store.

The compiled-program record (``CompilationResult.to_record`` / ``from_record`` /
``save`` / ``load``, which the serving artifact cache also writes), the
:class:`RecordDirectory` both serving stores are, and the fault-injection table
of ROADMAP 6(c): what each kind of persisted file does when it is damaged —
a typed error or a miss, never a wrong answer.  No sockets, no processes.
"""

from __future__ import annotations

import base64
import json
import os
import random
import struct
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.api import ClientKit, CompiledProgram, CompilerOptions
from repro.backend import MockBackend
from repro.core import Executor, program_signature
from repro.core.analysis import validate
from repro.core.compiler import _sha256_of
from repro.core.serialization import proto
from repro.core.serialization.records import RecordDirectory, read_record, write_record
from repro.core.types import Op
from repro.errors import CompilationError, EvaError, SerializationError, ServingError
from repro.frontend import EvaProgram, input_encrypted, output
from repro.serving import ArtifactCache, EvaServer, SessionStore

X = [1.0, 2.0, 4.0, 8.0, -1.0, 0.5, 0.25, 3.0]
DATA = Path(__file__).resolve().parent / "data"


def make_program():
    """``y = 3 * rot(x, 1) * x + x``: a rotation, a product, one constant."""
    program = EvaProgram("triple", vec_size=8, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", (x << 1) * x * 3.0 + x, 25)
    return program


@pytest.fixture(scope="module")
def compiled():
    return CompiledProgram.compile(make_program())


def exact_server(**stores):
    return EvaServer(backend=MockBackend(error_model="none"), workers=1, **stores)


def alter_constant(path):
    """Change the program's constant 3.0 to 7.0 in its proto bytes; the file
    stays a well-formed record whose graph decodes."""
    record = json.loads(path.read_text())
    program = base64.b64decode(record["program"])
    three, seven = struct.pack("<d", 3.0), struct.pack("<d", 7.0)
    assert program.count(three) >= 1
    record["program"] = base64.b64encode(program.replace(three, seven)).decode("ascii")
    proto.deserialize(base64.b64decode(record["program"]))
    path.write_text(json.dumps(record))


def resealed(record, edit):
    """``record`` after ``edit(record)``, sealed again: an intact digest over
    whatever the edit left."""
    record = json.loads(json.dumps(record))
    del record["digest"]
    edit(record)
    record["digest"] = _sha256_of(record)
    return record


class TestCompiledRecord:
    @pytest.mark.parametrize("include_source", [True, False], ids=["source", "no-source"])
    @pytest.mark.parametrize(
        "options",
        [CompilerOptions(), CompilerOptions(policy="chet"), CompilerOptions(lane_width=4)],
        ids=["eva", "chet", "lane4"],
    )
    def test_record_round_trips(self, options, include_source):
        original = CompiledProgram.compile(make_program(), options=options)
        record = json.loads(json.dumps(original.to_record(include_source=include_source)))
        loaded = CompiledProgram.from_record(record)
        assert proto.serialize(loaded.program) == proto.serialize(original.program)
        assert loaded.parameters == original.parameters
        assert loaded.rotation_steps == original.rotation_steps
        assert loaded.options == original.options and loaded.lane_width == options.lane_width
        assert loaded.input_scales == original.input_scales
        assert loaded.output_scales == original.output_scales
        assert loaded.signature == original.signature
        assert loaded.compile_seconds == original.compile_seconds
        if include_source:
            assert proto.serialize(loaded.source) == proto.serialize(original.source)
            np.testing.assert_allclose(
                loaded.execute_reference({"x": X})["y"], original.execute_reference({"x": X})["y"]
            )
        else:  # a reader that finds no source carries on
            assert "source" not in record and loaded.source is None

    @pytest.mark.parametrize(
        "document, complaint",
        [
            ({"format": "eva-compiled-program"}, "version None"),
            ({"format": "eva-compiled-program", "version": 1, "program": {}}, "save it again"),
            ({"format": "eva-compiled-program", "version": 3}, "digest does not match"),
        ],
        ids=["marker-only", "version-1", "no-digest"],
    )
    def test_malformed_files_are_serialization_errors(self, tmp_path, document, complaint):
        path = tmp_path / "program.json"
        path.write_text(json.dumps(document))
        with pytest.raises(SerializationError, match=complaint):
            CompiledProgram.load(path)

    def test_an_intact_digest_over_a_malformed_body_is_still_typed(self, compiled):
        record = compiled.to_record()
        del record["digest"], record["parameters"]
        record["digest"] = _sha256_of(record)
        with pytest.raises(SerializationError, match="malformed compiled program record"):
            CompiledProgram.from_record(record)

    @pytest.mark.parametrize(
        "opcode, complaint",
        [(Op.NORMALIZE_SCALE, "NORMALIZE_SCALE"), (Op.SUM, "SUM"), (Op.COPY, "COPY"),
         (13, "13 is not a valid Op")],
        ids=["NORMALIZE_SCALE", "SUM", "COPY", "no-row-13"],
    )  # fmt: skip
    def test_a_record_no_backend_can_evaluate_is_refused_at_load(self, compiled, opcode, complaint):
        """Sealed with a valid digest, it used to load and then fail every
        request: an opcode without a row, or one the compiler lowers away."""

        def edit(record):
            message = proto.ProgramMessage.from_bytes(base64.b64decode(record["program"]))
            (inst,) = [i for i in message.instructions if i.op_code is Op.ROTATE_LEFT]
            inst.op_code = opcode
            record["program"] = base64.b64encode(message.to_bytes()).decode("ascii")

        with pytest.raises(SerializationError, match=complaint):
            CompiledProgram.from_record(resealed(compiled.to_record(), edit))

    @pytest.mark.parametrize(
        "graph", ["not base64!", base64.b64encode(b"{not a proto}").decode(), 7],
        ids=["not-base64", "not-a-proto", "not-text"],
    )  # fmt: skip
    def test_a_graph_that_does_not_decode_is_typed(self, compiled, graph):
        record = resealed(compiled.to_record(), lambda record: record.update(program=graph))
        with pytest.raises(SerializationError, match="malformed compiled program record"):
            CompiledProgram.from_record(record)

    @pytest.mark.parametrize("op", [Op.NORMALIZE_SCALE, Op.SUM, Op.COPY], ids=lambda op: op.name)
    def test_validate_refuses_an_opcode_no_backend_evaluates(self, compiled, op):
        program = compiled.program.clone()
        (rotation,) = [t for t in program.terms() if t.op is Op.ROTATE_LEFT]
        rotation.op = op
        with pytest.raises(CompilationError, match=op.name):
            validate(program)

    def test_a_record_an_earlier_build_wrote_is_refused(self, tmp_path):
        """``tests/data/compiled_record.json`` was written by ``cli compile -o``
        at the commit before the instruction table: version 2, its graphs as
        JSON nodes and its signature hashed over them.  It is refused with the
        version message, and the serving cache reads one as a miss."""
        record = read_record(DATA / "compiled_record.json")
        assert record["version"] == 2 and isinstance(record["program"], dict)
        with pytest.raises(SerializationError, match="has version 2, this build reads version 3"):
            CompiledProgram.from_record(record)
        cache = ArtifactCache(tmp_path)
        write_record(cache.path_for(record["signature"]), record)
        assert cache.load(record["signature"]) is None

    def test_a_record_this_version_wrote_still_loads(self):
        """``tests/data/compiled_record_v3.json`` was written by ``cli compile
        -o --max-rescale-bits 25`` from the same source: it loads, seals to the
        same digest, hashes its source to the stored signature and runs."""
        record = read_record(DATA / "compiled_record_v3.json")
        loaded = CompiledProgram.from_record(record)
        assert loaded.to_record()["digest"] == record["digest"]
        assert program_signature(loaded.source, loaded.options) == record["signature"]
        inputs = {"x": np.linspace(-1.0, 1.0, 16)}
        outputs = Executor(loaded, MockBackend(error_model="none")).execute(inputs)
        np.testing.assert_allclose(outputs["y"], loaded.execute_reference(inputs)["y"], atol=1e-9)

    def test_an_altered_saved_program_is_refused(self, compiled, tmp_path):
        path = tmp_path / "triple.json"
        compiled.save(path)
        assert CompiledProgram.load(path).signature == compiled.signature
        alter_constant(path)
        with pytest.raises(SerializationError, match="digest does not match"):
            CompiledProgram.load(path)

    def test_save_never_shows_a_reader_a_torn_file(self, compiled, tmp_path):
        path = tmp_path / "triple.json"
        compiled.save(path)
        stop, torn = threading.Event(), []

        def reader():
            while not stop.is_set():
                try:
                    CompiledProgram.load(path)
                except SerializationError as exc:
                    torn.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 0.3
        while time.monotonic() < deadline:
            compiled.save(path)
        stop.set()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert not torn and not list(tmp_path.glob("*.tmp"))

    def test_a_loaded_value_keeps_its_signature(self, compiled, tmp_path):
        """So the cache can key it, and a server that compiled the same source
        accepts the bundles a kit built on it stamps."""
        path = tmp_path / "triple.json"
        compiled.save(path)
        loaded = CompiledProgram.load(path)
        assert loaded.signature == compiled.signature
        cache = ArtifactCache(tmp_path / "artifacts")
        published = cache.save(loaded)
        assert published.exists() and len(cache) == 1
        assert cache.load(compiled.signature).parameters == compiled.parameters
        kit = ClientKit(loaded, backend=MockBackend(error_model="none"), client_id="alice")
        with exact_server() as server:
            server.register("triple", make_program())
            server.create_session("triple", "alice", kit.evaluation_context())
            response = server.request_encrypted("triple", kit.encrypt_inputs({"x": X}))
            outputs = kit.decrypt_outputs(response.outputs)
        np.testing.assert_allclose(outputs["y"], compiled.execute_reference({"x": X})["y"], atol=1e-6)


def served_answer(artifact_dir, expect):
    """One server lifetime over ``artifact_dir``: the answer to ``X`` and the
    cache's counters, which must read ``expect`` = (hits, misses, stores)."""
    cache = ArtifactCache(artifact_dir)
    with exact_server(artifact_cache=cache) as server:
        server.register("triple", make_program())
        answer = server.request("triple", {"x": X}).outputs["y"]
        counters = server.stats()["registry"]["artifacts"]
    assert (counters["hits"], counters["misses"], counters["stores"]) == expect
    return answer


def test_an_altered_artifact_record_is_a_miss_not_a_wrong_answer(compiled, tmp_path):
    want = compiled.execute_reference({"x": X})["y"]
    np.testing.assert_allclose(served_answer(tmp_path, (0, 1, 1)), want, atol=1e-6)
    (path,) = tmp_path.glob("*.json")
    alter_constant(path)
    # The second server recompiles and republishes; the third hits the repair.
    np.testing.assert_allclose(served_answer(tmp_path, (0, 1, 1)), want, atol=1e-6)
    np.testing.assert_allclose(served_answer(tmp_path, (1, 0, 0)), want, atol=1e-6)


# -- the fault-injection table -----------------------------------------------------
def _edited(**fields):
    def damage(text):
        record = json.loads(text)
        record.update(fields)
        return json.dumps(record)

    return damage


def _flipped(index):
    def damage(text):
        position = random.Random(1000 + index).randrange(len(text))
        return text[:position] + chr(ord(text[position]) ^ 1) + text[position + 1 :]

    return damage


DIRECTORY = object()  # a directory where the file should be
DAMAGE = {
    **{f"cut@{cut}": (lambda text, cut=cut: text[: int(len(text) * cut)]) for cut in (0.02, 0.25, 0.5, 0.75, 0.99)},
    "empty": lambda text: "",
    "directory": lambda text: DIRECTORY,
    "not-json": lambda text: "{not json",
    "not-an-object": lambda text: "[1, 2, 3]",
    "wrong-format": _edited(format="eva-something-else"),
    "wrong-version": _edited(version=99),
    **{f"flip#{index}": _flipped(index) for index in range(20)},
}  # fmt: skip


def inflict(path, damage):
    damaged = DAMAGE[damage](path.read_text())
    path.unlink()
    if damaged is DIRECTORY:
        path.mkdir()
    else:
        path.write_text(damaged)


@pytest.mark.parametrize("damage", DAMAGE)
class TestFaultInjection:
    def test_saved_program(self, compiled, tmp_path, damage):
        path = tmp_path / "triple.json"
        compiled.save(path)
        inflict(path, damage)
        with pytest.raises(SerializationError):
            CompiledProgram.load(path)

    def test_artifact_record(self, compiled, tmp_path, damage):
        want = compiled.execute_reference({"x": X})["y"]
        served_answer(tmp_path, (0, 1, 1))
        (path,) = tmp_path.glob("*.json")
        inflict(path, damage)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # "could not publish" over a directory
            answer = served_answer(tmp_path, (0, 1, 0 if damage == "directory" else 1))
        np.testing.assert_allclose(answer, want, atol=1e-6)
        assert not list(tmp_path.glob("*.tmp"))

    def test_session_record(self, compiled, tmp_path, damage):
        """What holds today and no more: an unreadable or other-version record
        reads as missing (the typed "create a session first" error); a record
        that still parses is restored as it reads — it has no digest — and
        whatever that does, nothing but a typed error leaves the worker."""
        want = compiled.execute_reference({"x": X})["y"]
        kit = ClientKit(compiled, backend=MockBackend(error_model="none"), client_id="alice")
        with exact_server(session_store=SessionStore(tmp_path)) as server:
            server.register("triple", make_program())
            server.create_session("triple", "alice", kit.export_evaluation_keys())
        (path,) = tmp_path.glob("*.json")
        intact = path.read_text()
        inflict(path, damage)
        still_a_record = not path.is_dir() and (read_record(path) or {}).get("version") == 1
        with exact_server(session_store=SessionStore(tmp_path)) as server:
            server.register("triple", make_program())
            bundle = kit.bundle_to_wire(kit.encrypt_inputs({"x": X}))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # "could not be restored"
                try:
                    response = server.request_encrypted("triple", bundle, client_id="alice")
                except EvaError as exc:
                    assert still_a_record or (
                        isinstance(exc, ServingError) and "not registered evaluation keys" in str(exc)
                    )
                else:
                    assert still_a_record
                    if json.loads(path.read_text())["evaluation_keys"] == json.loads(intact)["evaluation_keys"]:
                        outputs = kit.decrypt_outputs(kit.outputs_from_wire(response.to_wire()))
                        np.testing.assert_allclose(outputs["y"], want, atol=1e-6)


# -- the directory both stores are --------------------------------------------------
class TestRecordDirectory:
    def test_a_failed_write_leaves_the_old_record_and_no_temp_file(self, tmp_path):
        path = tmp_path / "record.json"
        write_record(path, {"n": 1})
        with pytest.raises(TypeError):
            write_record(path, {"n": object()})
        assert read_record(path) == {"n": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["record.json"]

    @pytest.mark.parametrize("store", [SessionStore, ArtifactCache, RecordDirectory])
    def test_prune_sweeps_the_temp_file_of_a_killed_writer(self, tmp_path, store):
        """A writer SIGKILLed between ``mkstemp`` and ``os.replace`` leaves a
        ``*.tmp`` behind; it ages by mtime like any unreadable file."""
        directory = store(tmp_path)
        old, young = tmp_path / "tmpdead.tmp", tmp_path / "tmpbusy.tmp"
        old.write_text('{"version": 1, "evaluation_')
        young.write_text('{"version": 1, "evaluation_')
        stale = time.time() - 1000.0
        os.utime(old, (stale, stale))
        assert directory.prune() == 0  # no bound, no sweep
        assert directory.prune(max_age=100.0) == 1
        assert not old.exists() and young.exists()

    def test_records_age_by_their_stamp_else_by_mtime(self, tmp_path):
        directory = RecordDirectory(tmp_path, ttl=100.0)
        write_record(tmp_path / "stamped.json", {"saved_at": time.time() - 1000.0})
        write_record(tmp_path / "fresh.json", {"saved_at": time.time()})
        write_record(tmp_path / "unstamped.json", {"n": 1})
        assert [path.name for path, _ in directory] == ["fresh.json", "stamped.json", "unstamped.json"]
        assert directory._live(tmp_path / "stamped.json") is None  # expired reads delete
        assert not (tmp_path / "stamped.json").exists() and len(directory) == 2
        stale = time.time() - 1000.0
        os.utime(tmp_path / "unstamped.json", (stale, stale))
        assert directory.prune() == 1 and directory.file_count() == 1
        with pytest.raises(ValueError):
            RecordDirectory(tmp_path, ttl=0.0)
