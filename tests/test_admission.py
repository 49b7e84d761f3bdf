"""Admission checks the compiled contract before any op.

An encrypted input is what the compilation encrypts — level 0, the input's
scale, two polynomials, the compiled ring degree — or it is refused with a
``ParameterError`` before the first homomorphic operation; evaluation keys
that cannot make every compiled rotation are refused when they are attached.
One test per damage: a live bundle and a wire bundle, both through an
in-process ``EvaServer``, and attach through ``SessionManager``.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.api import ClientKit, CompiledProgram
from repro.backend import CkksBackend
from repro.ckks import Ciphertext
from repro.core import CompilerOptions
from repro.errors import ParameterError
from repro.frontend import EvaProgram, input_encrypted, output
from repro.serving import EvaServer, SessionManager

OPTIONS = CompilerOptions(max_rescale_bits=25)
VALUES = np.linspace(-1.0, 1.0, 64)


def square_plus():
    program = EvaProgram("square_plus", vec_size=64, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", x * x + x, 25)
    return program


def shifted_sum():
    program = EvaProgram("shifted_sum", vec_size=64, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", x + (x << 1) + (x << 2), 25)
    return program


@pytest.fixture(scope="module")
def party():
    """A kit, a server given its compilation as ``square_plus`` and the kit's
    exported keys, and the session's evaluation context."""
    compiled = CompiledProgram.compile(square_plus().graph, options=OPTIONS)
    kit = ClientKit(compiled, backend=CkksBackend(seed=3), client_id="alice")
    with EvaServer(backend=CkksBackend(seed=3), workers=1) as server:
        server.register("square_plus", compiled)
        server.create_session(
            "square_plus", "alice", json.loads(json.dumps(kit.export_evaluation_keys()))
        )
        yield kit, server, server.sessions.get_attached(compiled, "alice").context


def damaged(kit, handle):
    """A bundle of the kit's whose input ``x`` is ``handle``."""
    bundle = kit.encrypt_inputs({"x": VALUES})
    bundle.ciphertexts["x"] = handle
    return bundle


def refused(server, context, bundle, match):
    ops = context.op_count
    with pytest.raises(ParameterError, match=match):
        server.request_encrypted("square_plus", bundle, timeout=60)
    assert context.op_count == ops  # refused before any op


class TestInputs:
    def test_the_compiled_input_is_evaluated(self, party):
        kit, server, _context = party
        response = server.request_encrypted("square_plus", kit.encrypt_inputs({"x": VALUES}))
        answer = kit.decrypt_outputs(response.outputs)["y"]
        response.release()
        assert np.allclose(answer, VALUES * VALUES + VALUES, atol=1e-2)

    def test_an_input_at_level_1(self, party):
        """Evaluated before, it decrypted with about 10x the error (0.0038 vs 0.0004)."""
        kit, server, context = party
        handle = kit.context.encrypt(VALUES, 25, level=1)
        refused(server, context, damaged(kit, handle), "at level 1; the compilation encrypts inputs at level 0")

    @pytest.mark.parametrize("bits", [20, 40])
    def test_an_input_at_another_scale(self, party, bits):
        """Refused before only mid-evaluation, by a ScaleMismatchError."""
        kit, server, context = party
        handle = kit.context.encrypt(VALUES, bits)
        refused(server, context, damaged(kit, handle), f"scale 2\\^{bits}; the compilation encrypts it at 2\\^25")

    def test_an_input_of_three_polynomials(self, party):
        kit, server, context = party
        fresh = kit.context.encrypt(VALUES, 25)
        handle = Ciphertext(fresh.polys + [fresh.polys[1].copy()], fresh.scale, fresh.level)
        refused(server, context, damaged(kit, handle), "has 3 polynomials")

    def test_an_input_of_another_ring_degree(self, party):
        kit, server, context = party
        degree = kit.compiled.parameters.poly_modulus_degree
        wider = dataclasses.replace(kit.compiled.parameters, poly_modulus_degree=2 * degree)
        other = CkksBackend(seed=4).create_context(wider)
        other.generate_keys()
        handle = other.encrypt(VALUES, 25)
        refused(server, context, damaged(kit, handle), f"degree {2 * degree}; the compilation runs at N = {degree}")

    def test_through_the_server_a_level_1_input_is_refused_and_nothing_stays_live(self):
        compiled = CompiledProgram.compile(square_plus().graph, options=OPTIONS)
        kit = ClientKit(compiled, backend=CkksBackend(seed=3))
        with EvaServer(backend=CkksBackend(seed=3), workers=1, batch_window=0.0) as server:
            server.register("square_plus", square_plus(), options=OPTIONS)
            server.create_session("square_plus", "bob", kit.export_evaluation_keys())
            session = server.sessions.get_attached(compiled, "bob")
            bundle = kit.bundle_to_wire(damaged(kit, kit.context.encrypt(VALUES, 25, level=1)))
            with pytest.raises(ParameterError, match="at level 1"):
                server.request_encrypted("square_plus", json.loads(json.dumps(bundle)), client_id="bob")
            assert session.context.op_count == 0 and session.context.live_ciphertexts == 0


class TestRotationKeys:
    @pytest.fixture(scope="class")
    def kit(self):
        compiled = CompiledProgram.compile(shifted_sum().graph, options=OPTIONS)
        assert compiled.parameters.rotation_steps == [1, 2]
        return ClientKit(compiled, backend=CkksBackend(seed=3))

    def keys_without_step_2(self, kit):
        keys = json.loads(json.dumps(kit.export_evaluation_keys()))
        element = kit.context.context.galois_element_for_step(2)
        del keys["galois_keys"][str(element)]
        return keys

    def test_a_key_set_that_covers_the_rotations_attaches(self, kit):
        backend = CkksBackend(seed=3)
        sessions = SessionManager(backend)
        context = backend.create_evaluation_context(
            kit.compiled.parameters, kit.export_evaluation_keys()
        )
        session = sessions.attach(kit.compiled, "alice", context)
        assert sessions.get_attached(kit.compiled, "alice") is session
        with EvaServer(backend=backend, workers=1) as server:
            server.register("shifted_sum", kit.compiled)
            server.create_session("shifted_sum", kit.client_id, kit.export_evaluation_keys())
            response = server.request_encrypted("shifted_sum", kit.encrypt_inputs({"x": VALUES}))
            answer = kit.decrypt_outputs(response.outputs)["y"]
        expected = VALUES + np.roll(VALUES, -1) + np.roll(VALUES, -2)
        assert np.allclose(answer, expected, atol=1e-2)

    def test_a_missing_galois_key_is_refused_at_attach(self, kit):
        backend = CkksBackend(seed=3)
        sessions = SessionManager(backend)
        context = backend.create_evaluation_context(
            kit.compiled.parameters, self.keys_without_step_2(kit)
        )
        with pytest.raises(ParameterError, match=r"no Galois key for rotation steps \[2\]"):
            sessions.attach(kit.compiled, "alice", context)
        with pytest.raises(LookupError):
            sessions.get_attached(kit.compiled, "alice")

    def test_the_server_refuses_the_session(self, kit):
        with EvaServer(backend=CkksBackend(seed=3), workers=1, batch_window=0.0) as server:
            server.register("shifted_sum", shifted_sum(), options=OPTIONS)
            with pytest.raises(ParameterError, match=r"rotation steps \[2\]"):
                server.create_session("shifted_sum", "carol", self.keys_without_step_2(kit))
            with pytest.raises(LookupError):
                server.sessions.get_attached(kit.compiled, "carol")
