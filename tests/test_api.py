"""Tests for the client/server API split (:mod:`repro.api`).

The acceptance property of the redesign: a :class:`ServerRuntime` evaluates a
:class:`ClientKit`-encrypted bundle without ever receiving the secret key or
plaintext inputs, the decrypted results match :func:`execute_reference`, and
the same bundle round-trips through :class:`EvaServer` over the TCP
transport, while the legacy one-shot :class:`Executor` keeps working as a
compatibility wrapper.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.api import (
    ClientKit,
    CompilationResult,
    CompiledProgram,
    Executor,
    ServerRuntime,
    bundle_from_wire,
    eva_program,
    execute_reference,
)
from repro.backend import CkksBackend, MockBackend
from repro.core import CompilerOptions, program_signature
from repro.errors import CompilationError, ExecutionError, SerializationError, ServingError
from repro.frontend import EvaProgram, input_encrypted, input_plain, output
from repro.serving import EvaServer, EvaTcpServer, ServingClient


def make_program(vec_size=32, scale=25):
    program = EvaProgram("poly", vec_size=vec_size, default_scale=scale)
    with program:
        x = input_encrypted("x", scale)
        output("y", x * x + x / 2 + 1.0, scale)
    return program


def expected(xv):
    return xv * xv + xv / 2 + 1.0


@pytest.fixture
def compiled():
    return CompiledProgram.compile(make_program())


@pytest.fixture
def split(compiled):
    """A (client, server) pair over a noiseless mock backend."""
    backend = MockBackend(error_model="none")
    client = ClientKit(compiled, backend=backend, client_id="alice")
    server = ServerRuntime(compiled, backend=backend)
    server.attach_client("alice", client.evaluation_context())
    return client, server


class TestCompiledProgram:
    def test_compile_from_eva_program(self, compiled):
        assert compiled.name == "poly"
        assert compiled.vec_size == 32
        assert compiled.rotation_steps == []
        assert compiled.signature == program_signature(compiled.source)

    def test_signature_matches_serving_registry_key(self, compiled):
        """Client artifact and server ProgramSpec agree without coordination."""
        server = EvaServer(backend=MockBackend())
        spec = server.register("poly", make_program())
        assert spec.signature == compiled.signature
        server.close()

    def test_compiled_program_is_the_compilers_result(self, compiled):
        """One value: what ``program.compile()``, ``EvaCompiler`` and
        ``CompiledProgram.compile`` return is one class, and a result assembled
        by hand hashes what it has (its source, else its compiled graph)."""
        from dataclasses import replace

        assert CompiledProgram is CompilationResult
        assert type(make_program().compile()) is CompiledProgram
        by_hand = replace(compiled, signature="")
        assert by_hand.signature == compiled.signature
        bare = replace(compiled, signature="", source=None)
        assert bare.signature == program_signature(compiled.program, compiled.options)

    def test_program_compile_output_interoperates_with_server(self):
        """A ClientKit built on program.compile() output must produce bundles
        a server that registered the source accepts."""
        program = make_program()
        compilation = program.compile()
        kit = ClientKit(compilation, backend=MockBackend(error_model="none"))
        server = EvaServer(backend=MockBackend(error_model="none"))
        try:
            server.register("poly", make_program())
            server.create_session("poly", kit.client_id, kit.evaluation_context())
            xv = np.linspace(-1, 1, 32)
            response = server.request_encrypted("poly", kit.encrypt_inputs({"x": xv}))
            outputs = kit.decrypt_outputs(response.outputs)
            np.testing.assert_allclose(outputs["y"], expected(xv), atol=1e-9)
        finally:
            server.close()

    def test_save_load_roundtrip(self, compiled, tmp_path):
        path = tmp_path / "poly.cp.json"
        compiled.save(path)
        loaded = CompiledProgram.load(path)
        assert loaded.signature == compiled.signature
        assert loaded.vec_size == compiled.vec_size
        assert loaded.parameters.poly_modulus_degree == compiled.parameters.poly_modulus_degree
        assert loaded.parameters.coeff_modulus_bits == compiled.parameters.coeff_modulus_bits
        assert loaded.rotation_steps == compiled.rotation_steps
        assert loaded.options.policy == compiled.options.policy
        assert loaded.source is not None

    def test_loaded_artifact_executes(self, compiled, tmp_path):
        path = tmp_path / "poly.cp.json"
        compiled.save(path)
        loaded = CompiledProgram.load(path)
        backend = MockBackend(error_model="none")
        client = ClientKit(loaded, backend=backend)
        server = ServerRuntime(loaded, backend=backend)
        server.attach_client("default", client.evaluation_context())
        xv = np.linspace(-1, 1, 32)
        outputs = client.decrypt_outputs(server.evaluate(client.encrypt_inputs({"x": xv})))
        np.testing.assert_allclose(outputs["y"], expected(xv), atol=1e-9)

    def test_load_rejects_non_artifacts(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"not": "an artifact"}))
        with pytest.raises(SerializationError, match="not a compiled program record"):
            CompiledProgram.load(path)
        with pytest.raises(SerializationError, match="no compiled program record at"):
            CompiledProgram.load(tmp_path / "missing.json")

    def test_execute_reference_uses_source_semantics(self, compiled):
        xv = np.linspace(-1, 1, 32)
        np.testing.assert_allclose(
            compiled.execute_reference({"x": xv})["y"], expected(xv), atol=1e-12
        )


class TestServerBoundary:
    """The acceptance tests: the server never sees secrets or plaintext."""

    def test_end_to_end_matches_reference(self, split):
        client, server = split
        xv = np.linspace(-1, 1, 32)
        bundle = client.encrypt_inputs({"x": xv})
        encrypted = server.evaluate(bundle)
        outputs = client.decrypt_outputs(encrypted)
        reference = execute_reference(client.compiled.source, {"x": xv})
        np.testing.assert_allclose(outputs["y"], reference["y"], atol=1e-9)

    def test_server_context_has_no_secret_key(self, split):
        client, server = split
        context = server.client_context("alice")
        assert context.has_secret_key is False
        assert client.context.has_secret_key is True

    def test_server_cannot_decrypt(self, split):
        client, server = split
        bundle = client.encrypt_inputs({"x": np.linspace(-1, 1, 32)})
        encrypted = server.evaluate(bundle)
        context = server.client_context("alice")
        with pytest.raises(ExecutionError, match="no secret key"):
            context.decrypt(encrypted.ciphertexts["y"])

    def test_server_never_calls_decrypt(self, split, monkeypatch):
        """Instrumented proof: evaluation performs zero decrypt calls."""
        client, server = split
        context = server.client_context("alice")
        calls = []
        original = type(context).decrypt
        monkeypatch.setattr(
            type(context), "decrypt", lambda self, h: calls.append(1) or original(self, h)
        )
        server.evaluate(client.encrypt_inputs({"x": np.linspace(-1, 1, 32)}))
        assert calls == []

    def test_bundle_carries_no_plaintext_for_cipher_inputs(self, split):
        client, _server = split
        bundle = client.encrypt_inputs({"x": np.linspace(-1, 1, 32)})
        assert set(bundle.ciphertexts) == {"x"}
        assert bundle.plain == {}

    def test_plain_inputs_travel_unencrypted(self):
        program = EvaProgram("mixed", vec_size=16, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            m = input_plain("mask", 25)
            output("y", x * m, 25)
        compiled = CompiledProgram.compile(program)
        backend = MockBackend(error_model="none")
        client = ClientKit(compiled, backend=backend)
        server = ServerRuntime(compiled, backend=backend)
        server.attach_client("default", client.evaluation_context())
        xv = np.linspace(-1, 1, 16)
        mask = (np.arange(16) % 2).astype(float)
        bundle = client.encrypt_inputs({"x": xv, "mask": mask})
        assert set(bundle.ciphertexts) == {"x"}
        assert set(bundle.plain) == {"mask"}
        outputs = client.decrypt_outputs(server.evaluate(bundle))
        np.testing.assert_allclose(outputs["y"], xv * mask, atol=1e-9)

    def test_secret_contexts_are_refused(self, split, compiled):
        client, server = split
        with pytest.raises(ExecutionError, match="refuses contexts holding a secret key"):
            server.attach_client("bob", client.context)
        bundle = client.encrypt_inputs({"x": np.zeros(32)})
        with pytest.raises(ExecutionError, match="refuses contexts"):
            server.evaluate(bundle, context=client.context)

    def test_signature_mismatch_is_refused(self, split):
        client, server = split
        other = CompiledProgram.compile(
            make_program(), options=CompilerOptions(policy="chet")
        )
        other_client = ClientKit(other, backend=MockBackend(error_model="none"))
        bundle = other_client.encrypt_inputs({"x": np.zeros(32)})
        bundle.client_id = "alice"
        with pytest.raises(ExecutionError, match="different compilation"):
            server.evaluate(bundle)

    def test_unknown_client_is_refused(self, split):
        client, server = split
        bundle = client.encrypt_inputs({"x": np.zeros(32)})
        bundle.client_id = "nobody"
        with pytest.raises(ExecutionError, match="no evaluation keys attached"):
            server.evaluate(bundle)

    def test_missing_input_is_refused_extras_ignored(self, compiled):
        client = ClientKit(compiled, backend=MockBackend())
        with pytest.raises(ExecutionError, match="missing value"):
            client.encrypt_inputs({})
        # Extra names are tolerated (the Executor semantics): a dead input the
        # compiler pruned may legitimately still receive a value.
        bundle = client.encrypt_inputs({"x": np.zeros(32), "zz": 1.0})
        assert set(bundle.ciphertexts) == {"x"}

    def test_dead_inputs_survive_save_load(self, tmp_path):
        """The pre-save and post-load kits accept the same input dicts even
        when the serialization layer drops declared-but-dead inputs."""
        program = EvaProgram("dead", vec_size=16, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            _unused = input_encrypted("unused", 25)
            output("y", x * x, 25)
        compiled = CompiledProgram.compile(program)
        inputs = {"x": np.linspace(-1, 1, 16), "unused": np.zeros(16)}
        backend = MockBackend(error_model="none")
        ClientKit(compiled, backend=backend).encrypt_inputs(inputs)
        path = tmp_path / "dead.cp.json"
        compiled.save(path)
        loaded_kit = ClientKit(CompiledProgram.load(path), backend=backend)
        bundle = loaded_kit.encrypt_inputs(inputs)
        assert set(bundle.ciphertexts) == {"x"}

    def test_bundle_reusable_after_evaluation(self, split):
        """Evaluation must not release/mutate the client's input handles."""
        client, server = split
        xv = np.linspace(-1, 1, 32)
        bundle = client.encrypt_inputs({"x": xv})
        first = client.decrypt_outputs(server.evaluate(bundle))
        second = client.decrypt_outputs(server.evaluate(bundle))
        np.testing.assert_allclose(first["y"], second["y"], atol=1e-12)
        # ...and it still serializes afterwards.
        client.bundle_to_wire(bundle)


class TestWireRoundTrip:
    def test_bundle_survives_json(self, split):
        client, server = split
        xv = np.linspace(-1, 1, 32)
        wire = json.loads(json.dumps(client.bundle_to_wire(client.encrypt_inputs({"x": xv}))))
        reply = json.loads(json.dumps(server.evaluate_wire(wire)))
        outputs = client.decrypt_outputs(client.outputs_from_wire(reply))
        np.testing.assert_allclose(outputs["y"], expected(xv), atol=1e-9)

    def test_wire_path_releases_server_handles(self, split):
        """Repeated wire evaluations must not grow the session context's
        live-ciphertext accounting without bound."""
        client, server = split
        xv = np.linspace(-1, 1, 32)
        wire = client.bundle_to_wire(client.encrypt_inputs({"x": xv}))
        context = server.client_context("alice")
        for _ in range(3):
            server.evaluate_wire(json.loads(json.dumps(wire)))
        assert context.live_ciphertexts == 0

    def test_exported_keys_survive_json(self, compiled):
        backend = MockBackend(error_model="none")
        client = ClientKit(compiled, backend=backend, client_id="carol")
        server = ServerRuntime(compiled, backend=backend)
        blob = json.loads(json.dumps(client.export_evaluation_keys()))
        context = server.attach_client("carol", blob)
        assert context.has_secret_key is False
        xv = np.linspace(-1, 1, 32)
        outputs = client.decrypt_outputs(server.evaluate(client.encrypt_inputs({"x": xv})))
        np.testing.assert_allclose(outputs["y"], expected(xv), atol=1e-9)

    def test_malformed_bundles_are_rejected(self, split):
        client, _server = split
        with pytest.raises(Exception, match="malformed|program_signature"):
            bundle_from_wire({"vec_size": 2}, client.context)
        with pytest.raises(Exception, match="mock"):
            client.context.decode_cipher({"scheme": "nope"})


class TestCkksBoundary:
    """The same boundary on the real RNS-CKKS backend: genuine RLWE ciphertexts."""

    OPTIONS = CompilerOptions(max_rescale_bits=25)

    def _compiled(self):
        program = EvaProgram("ckks-poly", vec_size=128, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("y", x * x * 0.5 + (x << 3) + 1.0, 25)
        return CompiledProgram.compile(program, options=self.OPTIONS)

    def test_blind_evaluation_with_exported_keys(self):
        compiled = self._compiled()
        backend = CkksBackend(seed=7)
        client = ClientKit(compiled, backend=backend, client_id="alice")
        server = ServerRuntime(compiled, backend=backend)
        # Full wire fidelity: keys and ciphertexts cross a JSON boundary.
        blob = json.loads(json.dumps(client.export_evaluation_keys()))
        assert "public_key" in blob and "relin_key" in blob and "galois_keys" in blob
        context = server.attach_client("alice", blob)
        assert context.has_secret_key is False
        assert context.decryptor is None and context.keygen is None

        xv = np.linspace(-1, 1, 128)
        wire = json.loads(json.dumps(client.bundle_to_wire(client.encrypt_inputs({"x": xv}))))
        reply = server.evaluate_wire(wire)
        outputs = client.decrypt_outputs(client.outputs_from_wire(reply))
        reference = execute_reference(compiled.source, {"x": xv})
        assert np.max(np.abs(outputs["y"] - reference["y"])) < 0.05

    def test_ckks_server_cannot_decrypt(self):
        compiled = self._compiled()
        backend = CkksBackend(seed=3)
        client = ClientKit(compiled, backend=backend)
        server = ServerRuntime(compiled, backend=backend)
        server.attach_client("default", client.evaluation_context())
        encrypted = server.evaluate(client.encrypt_inputs({"x": np.linspace(-1, 1, 128)}))
        with pytest.raises(ExecutionError, match="no secret key"):
            server.client_context("default").decrypt(encrypted.ciphertexts["y"])


class TestEvaServerEncryptedPath:
    def _server_and_kit(self, backend=None):
        backend = backend or MockBackend(error_model="none")
        server = EvaServer(backend=backend, batch_window=0.0)
        server.register("poly", make_program())
        kit = ClientKit(
            CompiledProgram.compile(make_program()), backend=backend, client_id="alice"
        )
        return server, kit

    def test_encrypted_request_requires_session(self):
        server, kit = self._server_and_kit()
        try:
            future = server.submit_encrypted("poly", kit.encrypt_inputs({"x": np.zeros(32)}))
            with pytest.raises(ServingError, match="not registered evaluation keys"):
                future.result(timeout=5)
        finally:
            server.close()

    def test_session_refuses_secret_contexts(self):
        server, kit = self._server_and_kit()
        try:
            with pytest.raises(ServingError, match="evaluation-only"):
                server.create_session("poly", "alice", kit.context)
        finally:
            server.close()

    def test_same_client_keeps_plaintext_path_after_session(self):
        """Registering evaluation keys must not hijack the client's plaintext
        sessions: the attached (secret-key-less) context lives in its own
        namespace, so a plaintext submit still gets a decrypting context."""
        server, kit = self._server_and_kit()
        try:
            server.create_session("poly", "alice", kit.evaluation_context())
            xv = np.linspace(-1, 1, 32)
            encrypted = kit.decrypt_outputs(
                server.request_encrypted("poly", kit.encrypt_inputs({"x": xv})).outputs
            )
            plain = server.request("poly", {"x": xv}, client_id="alice")
            np.testing.assert_allclose(plain["y"], encrypted["y"], atol=1e-9)
            assert server.sessions.summary()["client_keyed"] == 1
        finally:
            server.close()

    def test_client_id_override_propagates(self):
        server, kit = self._server_and_kit()
        tcp = EvaTcpServer(server, port=0)
        tcp.start_background()
        host, port = tcp.address
        try:
            with ServingClient(host, port) as client:
                client.create_session("poly", kit, client_id="override")
                xv = np.linspace(-1, 1, 32)
                outputs = client.submit_encrypted(
                    "poly", kit, {"x": xv}, client_id="override"
                )
                np.testing.assert_allclose(outputs["y"], expected(xv), atol=1e-9)
        finally:
            tcp.shutdown()
            server.close()

    def test_tcp_round_trip(self):
        """The full acceptance path: session + encrypted submit over TCP."""
        server, kit = self._server_and_kit()
        tcp = EvaTcpServer(server, port=0)
        tcp.start_background()
        host, port = tcp.address
        try:
            with ServingClient(host, port) as client:
                session = client.create_session("poly", kit)
                assert session["signature"] == kit.compiled.signature
                xv = np.linspace(-1, 1, 32)
                outputs = client.submit_encrypted("poly", kit, {"x": xv})
                reference = execute_reference(kit.compiled.source, {"x": xv})
                np.testing.assert_allclose(outputs["y"], reference["y"], atol=1e-9)
                assert client.last_stats["encrypted"] is True
                # plaintext submits still work on the same socket
                plain = client.submit("poly", {"x": xv}, client_id="bob")
                np.testing.assert_allclose(plain["y"], reference["y"], atol=1e-9)
        finally:
            tcp.shutdown()
            server.close()

    def test_client_side_packing_through_server(self):
        server, kit = self._server_and_kit()
        try:
            server.create_session("poly", "alice", kit.evaluation_context())
            requests = [{"x": [0.1] * 4}, {"x": [0.2] * 4}, {"x": [0.3] * 4}]
            bundle, plan = kit.encrypt_packed(requests)
            response = server.request_encrypted("poly", bundle)
            per_request = kit.decrypt_packed(plan, response.outputs)
            for request, result in zip(requests, per_request):
                np.testing.assert_allclose(
                    result["y"], expected(np.asarray(request["x"])), atol=1e-9
                )
        finally:
            server.close()


class TestEvaProgramFamily:
    def test_instantiation_cached_per_parameterization(self):
        @eva_program(vec_size=16, default_scale=25)
        def family(x):
            return x * x

        assert family() is family()
        assert family(vec_size=32) is family(vec_size=32)
        assert family() is not family(vec_size=32)
        assert family.cache_info()["traced"] == 2

    def test_compile_cached_by_signature(self):
        @eva_program(vec_size=16, default_scale=25)
        def family(x):
            return x * x

        compiled = family.compile()
        assert family.compile() is compiled
        assert family.compile(options=CompilerOptions(policy="chet")) is not compiled
        assert compiled.signature == program_signature(family().graph)

    def test_plain_inputs_and_named_outputs(self):
        @eva_program(vec_size=16, default_scale=25, plain=("mask",))
        def family(x, mask):
            return {"masked": x * mask, "shifted": (x << 1) + 0.0}

        program = family()
        graph = program.graph
        assert set(graph.outputs) == {"masked", "shifted"}
        from repro.core.types import ValueType

        assert graph.inputs["x"].value_type is ValueType.CIPHER
        assert graph.inputs["mask"].value_type is ValueType.VECTOR

    def test_tuple_outputs(self):
        @eva_program(vec_size=8, default_scale=25)
        def family(x):
            return x + 1.0, x - 1.0

        assert set(family().graph.outputs) == {"out0", "out1"}

    def test_traced_program_matches_reference(self):
        @eva_program(vec_size=16, default_scale=25)
        def family(x):
            return (x * 2.0 + 1.0) ** 2

        xv = np.linspace(-1, 1, 16)
        result = execute_reference(family().graph, {"x": xv})
        np.testing.assert_allclose(result["out"], (xv * 2 + 1) ** 2, atol=1e-12)

    def test_invalid_definitions_rejected(self):
        with pytest.raises(CompilationError, match="args"):
            @eva_program
            def varargs(*xs):
                return xs[0]

        with pytest.raises(CompilationError, match="not parameters"):
            @eva_program(plain=("nope",))
            def missing(x):
                return x

        @eva_program(vec_size=8)
        def bad_output(x):
            return 42

        with pytest.raises(CompilationError, match="must return"):
            bad_output()

    def test_bare_decorator(self):
        @eva_program
        def family(x):
            return x + 1.0

        assert family.default_vec_size == 4096
        assert family.name == "family"


class TestLegacyCompat:
    def test_executor_one_shot_still_works(self, compiled):
        xv = np.linspace(-1, 1, 32)
        result = Executor(compiled, MockBackend(error_model="none")).execute({"x": xv})
        np.testing.assert_allclose(result["y"], expected(xv), atol=1e-9)
        assert result.stats.op_count > 0

    def test_executor_matches_split_api(self, compiled, split):
        client, server = split
        xv = np.linspace(-1, 1, 32)
        one_shot = Executor(compiled, MockBackend(error_model="none")).execute({"x": xv})
        split_outputs = client.decrypt_outputs(
            server.evaluate(client.encrypt_inputs({"x": xv}))
        )
        np.testing.assert_allclose(one_shot["y"], split_outputs["y"], atol=1e-12)

    def test_api_reachable_as_attribute(self):
        import repro

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert repro.api.ClientKit is ClientKit
