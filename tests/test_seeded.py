"""Seeded polynomials: the expander, the keys and ciphertexts born from it, the wire.

Uniformly random polynomials — the ``a`` half of every key, the ``c1`` of a
fresh ciphertext — are named by a 32-byte seed instead of stored, shipped or
transformed.  This file pins, in order: the expander byte for byte (frozen
vectors, a word-at-a-time reference, its statistics); that a key set imported
from ``{seed, b}`` computes with exactly the forms its generator does, and
exactly those of the same key written out in full; symmetric encryption and
which handles still carry a seed; what each kind of connection is sent (seeds
where negotiated, the parent commit's record shapes and lengths elsewhere);
the decode-time validation of everything a blob hands the NTT kernel; and the
separation of public from secret randomness.

The exact NTT row counts of key generation, first evaluation and encryption
live with the other row pins in ``test_ckks_forms.py``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.ntt import ReferenceNtt

from repro import wire
from repro.api import ClientKit, CompiledProgram
from repro.backend import CkksBackend
from repro.backend import seal_backend
from repro.ckks import sampling
from repro.ckks.keys import KeyGenerator, SeededUniform
from repro.ckks.ntt import bit_reverse_indices
from repro.ckks.numth import generate_ntt_primes
from repro.ckks.rns import RnsPolynomial
from repro.ckks.sampling import KEY_SEEDS, RlweSampler, SeedSource, expand_uniform
from repro.core.analysis.parameters import EncryptionParameters
from repro.core.compiler import CompilerOptions
from repro.core.executor import execute_reference
from repro.core.serialization.packing import (
    bitpacked_residues,
    carries_bitpacked,
    expanded_seeds,
    pack_residues,
    raw_blobs,
    unpack_residues,
    unpack_seed,
)
from repro.errors import ExecutionError, ParameterError, SerializationError, ServingError
from repro.frontend import EvaProgram, input_encrypted, output
from repro.serving import EvaServer, EvaTcpServer, ServingClient, SessionStore, ShardConfig
from repro.serving import netserver

OPTIONS = CompilerOptions(max_rescale_bits=25)
SEED = bytes(range(32))


# -- (1) the expander --------------------------------------------------------------------
def expand_row_reference(seed: bytes, label: str, prime: int, n: int) -> list:
    """The definition, one word at a time: no numpy, one long squeeze."""
    stream = hashlib.shake_256(seed + label.encode("utf-8") + prime.to_bytes(8, "little"))
    stream = stream.digest(4 * 8 * n)
    limit = (2**32 // prime) * prime
    row = []
    for offset in range(0, len(stream), 4):
        word = int.from_bytes(stream[offset : offset + 4], "little")
        if word < limit:
            row.append(word % prime)
            if len(row) == n:
                return row
    raise AssertionError("the reference squeezed too little")


class TestExpander:
    #: (prime, first four, last four, sha256 of the row as little-endian u32) for
    #: seed 00..1f, label "galois/25/1", N = 4096 and primes of 25, 28 and 30 bits.
    FROZEN = [
        (33538049, [19751922, 29216888, 26311984, 5826108],
         [27651058, 12819348, 30645215, 18550683],
         "c88fcbfd531b2c99d90a1cec176ea70b55b96818cf58b5f3649fa21a55e0decc"),
        (268460033, [262877142, 221743133, 157540785, 94227240],
         [261409933, 28316138, 145131173, 180040877],
         "36e73b6560ba68a7784b84f65164f06db64f3ce90da27bf007de6ce4a1837154"),
        (1073750017, [182360812, 512548143, 970039595, 1021237073],
         [781033550, 516480523, 335925563, 544089693],
         "e8d61315c520287c4b65aff0a7701b16c3c8c852ab0057a5622d76d88a47ca98"),
    ]  # fmt: skip

    @pytest.mark.parametrize("draw", [None, lambda n, prime: n + 16, lambda n, prime: 4 * n],
                             ids=["default draw", "N+16 words", "4N words"])
    def test_frozen_vectors_whatever_the_draw_size(self, monkeypatch, draw):
        if draw is not None:
            monkeypatch.setattr(sampling, "_first_draw", draw)
        primes = [prime for prime, *_ in self.FROZEN]
        assert primes == generate_ntt_primes([25, 28, 30], 4096)
        rows = expand_uniform(SEED, "galois/25/1", primes, 4096)
        assert rows.dtype == np.int64 and rows.shape == (3, 4096)
        for row, (_prime, first, last, digest) in zip(rows, self.FROZEN):
            assert row[:4].tolist() == first and row[-4:].tolist() == last
            assert hashlib.sha256(row.astype("<u4").tobytes()).hexdigest() == digest

    def test_a_short_first_draw_is_extended_not_restarted(self, monkeypatch):
        monkeypatch.setattr(sampling, "_first_draw", lambda n, prime: n // 4)
        want = expand_row_reference(SEED, "x", 1073750017, 512)  # accepts ~3 words in 4
        assert expand_uniform(SEED, "x", [1073750017], 512)[0].tolist() == want

    @pytest.mark.parametrize("prime", generate_ntt_primes([20, 25, 30], 64))
    def test_matches_the_word_at_a_time_definition(self, prime):
        for label in ("public", "relin/0", "galois/3125/2", "cipher", ""):
            got = expand_uniform(SEED, label, [prime], 64)[0]
            assert got.tolist() == expand_row_reference(SEED, label, prime, 64)

    def test_rows_depend_on_seed_label_and_prime_only(self):
        primes = generate_ntt_primes([25, 25, 30], 64)
        rows = expand_uniform(SEED, "relin/1", primes, 64)
        for index, prime in enumerate(primes):  # a restriction expands the same rows
            assert np.array_equal(expand_uniform(SEED, "relin/1", [prime], 64)[0], rows[index])
        assert not np.array_equal(expand_uniform(SEED, "relin/2", primes, 64), rows)
        assert not np.array_equal(expand_uniform(SEED[::-1], "relin/1", primes, 64), rows)
        assert len({row.tobytes() for row in rows}) == len(primes)

    @pytest.mark.parametrize("seed", [b"", SEED[:31], SEED + b"\0", SEED.hex(), None])
    def test_a_seed_is_exactly_32_bytes(self, seed):
        with pytest.raises(ParameterError, match="32 bytes"):
            expand_uniform(seed, "public", [97], 8)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.binary(min_size=32, max_size=32), label=st.text(max_size=12),
           bits=st.sampled_from([24, 30]))
    def test_output_is_in_range_and_uniform(self, seed, label, bits):
        """Just above 2^24 and just below 2^30: in ``[0, q)``, and a 16-bucket
        chi-square at 15 degrees of freedom stays below 60 (about 1 in 10^6.5)."""
        prime = {24: (1 << 24) + 43, 30: (1 << 30) - 35}[bits]
        n, buckets = 4096, 16
        row = expand_uniform(seed, label, [prime], n)[0]
        assert row.min() >= 0 and row.max() < prime
        counts = np.bincount(row * buckets // prime, minlength=buckets)
        chi_square = float(((counts - n / buckets) ** 2).sum() / (n / buckets))
        assert chi_square < 60.0

    def test_evaluations_are_the_natural_order_values_of_one_polynomial(self):
        """A seeded key half *is* its evaluations ``i -> a(psi^(2i+1))``: written
        out in coefficient form and evaluated by the textbook transform, it
        reads back as the expansion in natural slot order."""
        from repro.ckks import CkksContext

        context = CkksContext(64, [25, 25, 30], enforce_security=False)
        basis = context.key_basis(0)
        half = SeededUniform(SEED, "relin/0")
        natural = expand_uniform(SEED, "relin/0", basis.primes, 64)
        assert np.array_equal(half.evaluations(basis), natural[:, bit_reverse_indices(64)])
        coefficients = half.coefficients(basis)
        for row, prime, want in zip(coefficients.residues, basis.primes, natural):
            oracle = ReferenceNtt(prime, 64)
            assert np.array_equal(oracle.forward_reference(row), want)


# -- a small scheme ----------------------------------------------------------------------
PARAMETERS = EncryptionParameters(
    poly_modulus_degree=256, coeff_modulus_bits=[25, 25, 25, 30], rotation_steps=[1, 2, 5]
)
SCALE_BITS = 25


def make_client(seed=3):
    backend = CkksBackend(seed=seed, enforce_security=False)
    client = backend.create_context(PARAMETERS)
    client.generate_keys()
    return backend, client


def through_json(blob):
    return json.loads(json.dumps(blob))


def switching_keys(context):
    evaluator = context.evaluator
    return [evaluator.relin_key.key] + [evaluator.galois_keys.keys[e] for e in sorted(evaluator.galois_keys.keys)]


def exercise_every_key(context, cipher):
    """Every rotation step at levels 0..2 and a relinearization at levels 0 and 1."""
    results = []
    lowered = [cipher]
    for _ in range(2):
        lowered.append(context.mod_switch(lowered[-1]))
    for level_cipher in lowered:
        results += [context.rotate(level_cipher, step) for step in PARAMETERS.rotation_steps]
    for level_cipher in lowered[:2]:
        results.append(context.relinearize(context.multiply(level_cipher, level_cipher)))
    return results


# -- (2) keys ----------------------------------------------------------------------------
class TestSeededKeys:
    @pytest.fixture(scope="class")
    def parties(self):
        backend, client = make_client()
        seeded_blob = through_json(client.export_evaluation_keys())
        with expanded_seeds():
            written_blob = through_json(client.export_evaluation_keys())
        return {
            "client": client,
            "own": client.evaluation_context(),  # shares the generator's key objects
            "seeded": backend.create_evaluation_context(PARAMETERS, seeded_blob),
            "written": backend.create_evaluation_context(PARAMETERS, written_blob),
            "blobs": (seeded_blob, written_blob),
        }

    def test_the_seeded_blob_names_every_uniform_half_and_is_half_the_size(self, parties):
        seeded, written = parties["blobs"]
        pairs = [seeded["public_key"], *seeded["relin_key"].values()]
        pairs += [pair for key in seeded["galois_keys"].values() for pair in key.values()]
        assert len(pairs) == 1 + 3 * (1 + len(PARAMETERS.rotation_steps))
        key_set_seed = parties["client"].keygen.seed
        for b, a in pairs:
            assert "b64" in b and a == {"seed": key_set_seed.hex()}
        assert "seed" not in json.dumps(written)
        assert 1.9 < len(json.dumps(written)) / len(json.dumps(seeded)) < 2.0

    def test_imported_forms_are_bit_identical_at_every_level(self, parties):
        client = parties["client"]
        cipher_wire = client.encode_cipher(client.encrypt(np.linspace(-1, 1, 128), SCALE_BITS))
        answers = {}
        for name in ("own", "seeded", "written"):
            context = parties[name]
            results = exercise_every_key(context, context.decode_cipher(through_json(cipher_wire)))
            answers[name] = [context.encode_cipher(result) for result in results]
        # One level-0 form per key, which every level read (no per-level copy).
        for own, seeded, written in zip(*(switching_keys(parties[n]) for n in ("own", "seeded", "written"))):
            assert own.form.flags["C_CONTIGUOUS"] and own.form.dtype == np.uint32
            assert np.array_equal(own.form, seeded.form)
            assert np.array_equal(own.form, written.form)
        # Same forms, same arithmetic: the three contexts answer byte for byte alike.
        assert answers["own"] == answers["seeded"] == answers["written"]

    def test_no_party_holds_a_coefficient_form_of_a_seeded_half(self, parties):
        for key in switching_keys(parties["own"]):  # the generator's pairs, kept for export
            for b, a in key.pairs.values():
                assert isinstance(b, RnsPolynomial) and isinstance(a, SeededUniform)
        for name in ("own", "seeded"):
            assert isinstance(parties[name].encryptor.public_key.a, SeededUniform)
        # An imported key holds its form and no pair: neither b nor a in coefficient form.
        for name, seeded in (("seeded", True), ("written", False)):
            for key in switching_keys(parties[name]):
                assert key.pairs == {} and key.form is not None
                assert len(key.seeds) == (key.form.shape[1] if seeded else 0)
                assert all(isinstance(a, SeededUniform) for a in key.seeds.values())

    @pytest.mark.parametrize("name", ["seeded", "written"])
    def test_every_rotation_and_a_relinearization_decrypt(self, parties, name):
        client, server = parties["client"], parties[name]
        values = np.linspace(-1, 1, 128)
        cipher = server.decode_cipher(through_json(client.encode_cipher(client.encrypt(values, SCALE_BITS))))
        for step in PARAMETERS.rotation_steps:
            reply = client.decode_cipher(through_json(server.encode_cipher(server.rotate(cipher, step))))
            assert np.allclose(client.decrypt(reply), np.roll(values, -step), atol=1e-2)
        squared = server.relinearize(server.multiply(cipher, cipher))
        reply = client.decode_cipher(through_json(server.encode_cipher(squared)))
        assert np.allclose(client.decrypt(reply), values**2, atol=1e-2)

    def test_public_key_encryption_agrees_between_the_imports(self, parties):
        values = np.linspace(-1, 1, 128)
        wires = []
        for name in ("own", "seeded", "written"):
            context = parties[name]  # same test seed, so the same u, e0, e1
            cipher = context.encrypt(values, SCALE_BITS, level=1)
            assert cipher.seed is None
            wires.append(context.encode_cipher(cipher))
        assert wires[0] == wires[1] == wires[2]
        reply = parties["client"].decode_cipher(through_json(wires[0]))
        assert np.allclose(parties["client"].decrypt(reply), values, atol=1e-3)

    def test_an_evaluation_context_still_cannot_decrypt(self, parties):
        for name in ("own", "seeded", "written"):
            context = parties[name]
            assert not context.has_secret_key and context.encryptor.secret_key is None
            with pytest.raises(ExecutionError, match="no secret key"):
                context.decrypt(context.encrypt([0.5], SCALE_BITS))

    def test_a_reexport_keeps_what_it_was_given(self, parties):
        seeded, written = parties["blobs"]
        assert parties["seeded"].export_evaluation_keys() == seeded
        assert parties["written"].export_evaluation_keys() == written
        with expanded_seeds():  # a seeded import can still serve a peer that reads no seeds
            assert parties["seeded"].export_evaluation_keys() == written


# -- (3) ciphertexts ---------------------------------------------------------------------
class TestSymmetricEncryption:
    def test_symmetric_and_public_key_encryption_of_one_plaintext(self):
        _, client = make_client()
        public = client.evaluation_context()
        context = client.context
        values = np.random.default_rng(0).uniform(-1, 1, context.slots)
        plain = client.encode(values, SCALE_BITS)
        # One error term decrypts within 4N/scale; the public-key path's
        # e0 + e*u + e1*s is ~sqrt(N) larger and is held to the tolerance fresh
        # ciphertexts have always been tested at.
        bounds = {"symmetric": 4 * context.poly_modulus_degree / 2.0**SCALE_BITS, "public": 1e-3}
        errors = {"symmetric": [], "public": []}
        for _ in range(12):
            for name, encryptor in (("symmetric", client.encryptor), ("public", public.encryptor)):
                cipher = encryptor.encrypt(plain)
                assert (cipher.seed is not None) == (name == "symmetric")
                error = float(np.max(np.abs(client.decryptor.decrypt(cipher) - values)))
                assert error < bounds[name]
                errors[name].append(error)
        assert max(errors["symmetric"]) < min(errors["public"])

    def test_the_seed_on_the_wire_expands_to_the_c1_that_was_encrypted(self):
        _, client = make_client()
        cipher = client.encrypt(np.linspace(-1, 1, 128), SCALE_BITS, level=1)
        seeded = client.encode_cipher(cipher)
        with expanded_seeds():
            written = client.encode_cipher(cipher)
        assert seeded["polys"][0] == written["polys"][0]
        assert seeded["polys"][1] == {"seed": cipher.seed.hex()}
        assert "seed" not in json.dumps(written)
        a, b = client.decode_cipher(through_json(seeded)), client.decode_cipher(through_json(written))
        assert a.seed is None and b.seed is None  # a decoded handle is not a fresh one
        for p, q in zip(a.polys, b.polys):
            assert p.form == q.form == "coeff" and np.array_equal(p.residues, q.residues)
        assert np.array_equal(a.polys[1].residues, cipher.polys[1].residues)

    def test_only_a_fresh_handle_exports_a_seed(self):
        _, client = make_client()
        fresh = client.encrypt(np.linspace(-1, 1, 128), SCALE_BITS)
        plain = client.encode(np.ones(128), SCALE_BITS)
        operated = [
            client.negate(fresh), client.add(fresh, fresh), client.add_plain(fresh, plain),
            client.rotate(fresh, 1), client.rotate(fresh, 0), client.mod_switch(fresh),
            client.multiply_plain(fresh, plain), client.relinearize(client.multiply(fresh, fresh)),
        ]  # fmt: skip
        # The multiplications rebound fresh's polynomials to evaluation form; it is
        # the same ciphertext, and still says so.
        assert fresh.polys[1].form == "eval"
        assert client.encode_cipher(fresh)["polys"][1] == {"seed": fresh.seed.hex()}
        for result in operated:
            assert result.seed is None
            assert "seed" not in json.dumps(client.encode_cipher(result))
        client.release(fresh)
        assert fresh.seed is None
        with pytest.raises(SerializationError, match="released"):
            client.encode_cipher(fresh)

    @pytest.mark.parametrize("seed", [None, 7])
    def test_no_two_ciphertexts_share_a_seed(self, seed):
        backend = CkksBackend(seed=seed, enforce_security=False)
        contexts = [backend.create_context(PARAMETERS) for _ in range(2)]
        seeds = []
        for context in contexts:
            context.generate_keys()
            seeds.append([context.encrypt([0.5], SCALE_BITS).seed for _ in range(50)])
            seeds[-1].append(context.keygen.seed)
        assert all(len(set(own)) == len(own) == 51 for own in seeds)
        # A test seed reproduces them; the operating system's never repeat.
        assert (seeds[0] == seeds[1]) == (seed is not None)


# -- (4) the wire ------------------------------------------------------------------------
def rotate_sum_program():
    program = EvaProgram("rotate_sum", vec_size=1024, default_scale=25)
    with program:
        acc = input_encrypted("x", 25)
        step = 1
        while step < 1024:
            acc = acc + (acc << step)
            step *= 2
        output("y", acc, 25)
    return program


#: Request bytes of ``create_session`` and of one ``submit_encrypted`` for
#: ``rotate_sum_program`` (N = 4096, ten Galois keys), client "alice", in the
#: format a connection that negotiated no ``seeded`` feature must still be
#: sent, length for length.  Measured at the parent commit (81b56f1) they were
#: (2973392, 87747) and (2233917, 65916), for keys of two one-prime digits over
#: [25, 25, 30]; the chain is now [25, 25, 28, 28] with one digit of both data
#: primes over two special primes, so each of the eleven switching keys writes
#: out 2 x 4 rows where it wrote 2 x 2 x 3, and the session request is these
#: lengths.  Ciphertexts did not change.
PARENT_REQUEST_BYTES = {"json": (2011211, 87747), "binary": (1510414, 65916)}

#: What the written-out ``relin_key`` entry of that session request comes to
#: (262348 and 197096 for two digits of three rows).  A kit for a program with
#: no RELINEARIZE generates and sends none, so its parent-format session is
#: exactly this much shorter; a kit that holds one sends the parent format's
#: bytes exactly.
RELIN_ENTRY_BYTES = {"json": 174877, "binary": 131323}


def parent_session_bytes(mode):
    """The parent format's session request for a key set without a relinearization key."""
    return PARENT_REQUEST_BYTES[mode][0] - RELIN_ENTRY_BYTES[mode]


def old_ack(request):
    """A hello ack as a build before features wrote it."""
    reply, protocol = wire.hello_ack(request)
    reply.pop("features", None)
    return reply, protocol


def seeded_ack(request):
    """A hello ack as a build that reads ``seeded`` but not ``bitpacked`` wrote it."""
    reply, protocol = wire.hello_ack(request)
    if "features" in reply:
        reply["features"] = [feature for feature in reply["features"] if feature != wire.BITPACKED]
    return reply, protocol


def has_seed_record(node) -> bool:
    if isinstance(node, dict):
        return unpack_seed(node) is not None or any(has_seed_record(v) for v in node.values())
    if isinstance(node, list):
        return any(has_seed_record(item) for item in node)
    return False


def written_out_decoder(context, bundle_wire):
    """The parent commit's reading of a bundle: the packed-polynomial branch only."""
    for cipher in bundle_wire["ciphertexts"].values():
        basis = context.context.data_basis(cipher["level"])
        for rows in cipher["polys"]:
            seal_backend._poly_from_rows(basis, rows)


class TestSeededWire:
    @pytest.fixture(scope="class")
    def served(self):
        program = rotate_sum_program()
        backend = CkksBackend(seed=11)
        server = EvaServer(backend=backend, workers=1, batch_window=0.0)
        server.register("rotate_sum", program, options=OPTIONS)
        tcp = EvaTcpServer(server, port=0)
        tcp.start_background()
        compiled = CompiledProgram.compile(program.graph, options=OPTIONS)
        kit = ClientKit(compiled, backend=backend, client_id="alice")
        try:
            yield {"server": server, "tcp": tcp, "kit": kit, "program": program, "compiled": compiled}
        finally:
            tcp.shutdown()
            tcp.server_close()
            server.close()

    @staticmethod
    def _spy(monkeypatch, server):
        """Record what the shard's ``EvaServer`` is handed for sessions and bundles."""
        seen = {"keys": [], "bundles": []}
        create, request = server.create_session, server.request_encrypted

        def create_session(name, client_id, evaluation_keys):
            seen["keys"].append(evaluation_keys)
            return create(name, client_id, evaluation_keys)

        def request_encrypted(name, bundle, **kwargs):
            seen["bundles"].append(bundle)
            return request(name, bundle, **kwargs)

        monkeypatch.setattr(server, "create_session", create_session)
        monkeypatch.setattr(server, "request_encrypted", request_encrypted)
        return seen

    @staticmethod
    def _session_and_submit(client, kit, x):
        """-> (session request bytes, submit request bytes, decrypted y)."""
        before = client.bytes_sent
        client.create_session("rotate_sum", kit)
        session_bytes = client.bytes_sent - before
        before = client.bytes_sent
        y = client.submit_encrypted("rotate_sum", kit, {"x": x})["y"]
        return session_bytes, client.bytes_sent - before, y

    def test_a_negotiated_connection_sends_seeds_and_half_the_bytes(self, served, monkeypatch):
        """Seeds alone, ``bitpacked`` withheld: half the parent format's bytes."""
        monkeypatch.setattr(netserver, "hello_ack", seeded_ack)
        seen = self._spy(monkeypatch, served["server"])
        x = np.linspace(-1, 1, 1024) / 1024
        host, port = served["tcp"].address
        with ServingClient(host, port, wire="binary") as client:
            assert client.features == {"seeded"}
            session_bytes, submit_bytes, y = self._session_and_submit(client, served["kit"], x)
            assert client._upload_seq == 0  # 689 846 bytes: under the streaming threshold
        assert np.allclose(y[:1024], execute_reference(served["program"].graph, {"x": x})["y"], atol=0.1)
        assert has_seed_record(seen["keys"][0]) and has_seed_record(seen["bundles"][0])
        assert not carries_bitpacked(seen["keys"][0]) and not carries_bitpacked(seen["bundles"][0])
        assert 0.495 < session_bytes / parent_session_bytes("binary") < 0.505
        assert 0.495 < submit_bytes / PARENT_REQUEST_BYTES["binary"][1] < 0.51

    def test_a_bitpacked_connection_sends_residues_at_their_widths(self, served, monkeypatch):
        """Both features: seeds, and every residue at 26/25/29/28 bits instead of 32."""
        seen = self._spy(monkeypatch, served["server"])
        x = np.linspace(-1, 1, 1024) / 1024
        host, port = served["tcp"].address
        with ServingClient(host, port, wire="binary") as client:
            assert client.features == set(wire.FEATURES)
            session_bytes, submit_bytes, y = self._session_and_submit(client, served["kit"], x)
        assert np.allclose(y[:1024], execute_reference(served["program"].graph, {"x": x})["y"], atol=0.1)
        assert carries_bitpacked(seen["keys"][0]) and carries_bitpacked(seen["bundles"][0])
        # 581 037 and 26 539 bytes: 0.421 and 0.403 of the parent format (the
        # session was 0.427 at [26, 25, 31] bits).
        assert 0.42 < session_bytes / parent_session_bytes("binary") < 0.425
        assert 0.40 < submit_bytes / PARENT_REQUEST_BYTES["binary"][1] < 0.405

    @pytest.mark.parametrize("mode", ["json", "binary"])
    def test_an_unnegotiated_connection_is_sent_the_parent_format(self, served, monkeypatch, mode):
        """``wire="json"`` sends no hello; the binary side meets a server that
        acks like one built before features existed.  The rotation program has
        no RELINEARIZE, so its kit sends no relinearization key; a kit holding
        one sends the parent's bytes exactly."""
        monkeypatch.setattr(netserver, "hello_ack", old_ack)
        seen = self._spy(monkeypatch, served["server"])
        x = np.linspace(-1, 1, 1024) / 1024
        host, port = served["tcp"].address
        relinearizing = ClientKit(served["compiled"], backend=CkksBackend(seed=11), client_id="alice")
        relinearizing.context.generate_keys()  # the parent's kit: a relinearization key too
        with ServingClient(host, port, wire=mode) as client:
            assert client.protocol == mode and client.features == frozenset()
            session_bytes, submit_bytes, y = self._session_and_submit(client, served["kit"], x)
            assert self._session_and_submit(client, relinearizing, x)[:2] == PARENT_REQUEST_BYTES[mode]
        assert (session_bytes, submit_bytes) == (parent_session_bytes(mode), PARENT_REQUEST_BYTES[mode][1])
        assert np.allclose(y[:1024], execute_reference(served["program"].graph, {"x": x})["y"], atol=0.1)
        keys, bundle = seen["keys"][0], seen["bundles"][0]
        assert not has_seed_record(keys) and not has_seed_record(bundle)
        assert not carries_bitpacked(seen) and "relin_key" not in keys
        written_out_decoder(served["kit"].context, bundle)
        for pair in [keys["public_key"], *next(iter(keys["galois_keys"].values())).values()]:
            assert [sorted(record) for record in pair] == [sorted(pair[0])] * 2  # two packed records

    def test_seeded_and_written_out_requests_get_byte_identical_replies(self, served):
        kit, server = served["kit"], served["server"]
        server.create_session("rotate_sum", "alice", kit.export_evaluation_keys())
        bundle = kit.encrypt_inputs({"x": np.linspace(-1, 1, 1024) / 1024})
        seeded = kit.bundle_to_wire(bundle)
        with expanded_seeds():
            written = kit.bundle_to_wire(bundle)
        assert has_seed_record(seeded) and not has_seed_record(written)
        replies = [
            server.request_encrypted("rotate_sum", through_json(wire_form), client_id="alice").to_wire()
            for wire_form in (seeded, written)
        ]
        for reply in replies:
            reply.pop("evaluate_seconds")
            assert not has_seed_record(reply)  # results are written as they always were
        assert replies[0] == replies[1]

    def test_a_kit_writes_seeds_by_default_and_the_codec_keeps_them_in_the_envelope(self, served):
        kit = served["kit"]
        with raw_blobs():  # what the e2e harness's traced path does
            bundle_wire = kit.bundle_to_wire(kit.encrypt_inputs({"x": np.zeros(1024)}))
            envelope, blobs = wire.split_message({"op": "submit", "bundle": bundle_wire})
        assert len(blobs) == 1 and has_seed_record(envelope)  # c0 is the only blob left
        rebuilt = wire.rehydrate(*wire.decode_message(b"".join(bytes(p) for p in wire.join_message(envelope, blobs))))
        assert rebuilt["bundle"]["ciphertexts"]["x"]["polys"][1] == bundle_wire["ciphertexts"]["x"]["polys"][1]

    def test_chunked_seeded_upload_through_a_one_shard_router(self, served, monkeypatch):
        # 869 287 bytes with no relinearization key and bit-packed residues:
        # a lower threshold keeps the upload chunked.
        monkeypatch.setattr(netserver, "STREAM_THRESHOLD_BYTES", 256 * 1024)
        seen = self._spy(monkeypatch, served["server"])
        shard_host, shard_port = served["tcp"].address

        class OneShardCluster:
            """What a router connection forwards through: one upstream per worker thread."""

            recipe = ShardConfig()  # where the router reads fairness / slow_threshold

            def __init__(self):
                self.upstreams = {}

            def _call(self, client_id, fn):
                import threading

                key = threading.get_ident()
                if key not in self.upstreams:
                    self.upstreams[key] = ServingClient(shard_host, shard_port, wire="binary")
                return fn(self.upstreams[key])

        cluster = OneShardCluster()
        router = netserver.ClusterTcpServer(cluster, port=0)
        router.start_background()
        try:
            x = np.linspace(-1, 1, 1024) / 1024
            with ServingClient(*router.address, wire="binary") as client:
                assert client.features == set(wire.FEATURES)
                _, _, y = self._session_and_submit(client, served["kit"], x)
                assert client._upload_seq == 1
        finally:
            router.shutdown()
            router.server_close()
            for upstream in cluster.upstreams.values():
                upstream.close()
        assert has_seed_record(seen["keys"][0])
        assert np.allclose(y[:1024], execute_reference(served["program"].graph, {"x": x})["y"], atol=0.1)

    def test_a_seeded_session_survives_the_store_and_a_restart(self, served, tmp_path):
        kit, program = served["kit"], served["program"]
        keys = through_json(kit.export_evaluation_keys())
        store = SessionStore(tmp_path)
        compilation = served["compiled"]
        store.save("alice", compilation, keys, program="rotate_sum")
        assert store.load("alice", compilation) == keys and has_seed_record(keys)

        x = np.linspace(-1, 1, 1024) / 1024
        want = execute_reference(program.graph, {"x": x})["y"]
        for restart in range(2):  # the second server finds only the store
            server = EvaServer(backend=CkksBackend(seed=11), workers=1, session_store=SessionStore(tmp_path))
            try:
                server.register("rotate_sum", program, options=OPTIONS)
                if restart == 0:
                    server.create_session("rotate_sum", "alice", keys)
                bundle_wire = through_json(kit.bundle_to_wire(kit.encrypt_inputs({"x": x})))
                reply = server.request_encrypted("rotate_sum", bundle_wire, client_id="alice")
                y = kit.decrypt_outputs(kit.outputs_from_wire(through_json(reply.to_wire())))["y"]
                reply.release()
                assert np.allclose(y[:1024], want, atol=0.1)
                assert server.sessions.summary()["client_keyed"] == 1
            finally:
                server.close()


# -- (6) decode validates what it hands the kernel ------------------------------------------
def poly_program():
    program = EvaProgram("poly", vec_size=64, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", x * x + (x << 1), 25)
    return program


def set_residue(record, value):
    """A packed polynomial with its first residue replaced (widened to ``i8``)."""
    residues = unpack_residues(record)
    residues[0, 0] = value
    return pack_residues(residues)


def corrupt_ciphers():
    """(name, edit of one wire ciphertext, fragment of the error) for every reject."""

    def polys(index, value):
        def edit(cipher):
            cipher["polys"][index] = value(cipher["polys"][index])
        return edit

    def field(name, value):
        def edit(cipher):
            cipher[name] = value
        return edit

    return [
        ("negative residue", polys(0, lambda r: set_residue(r, -5)), "outside [0, prime)"),
        ("residue of 2^40", polys(0, lambda r: set_residue(r, 2**40)), "outside [0, prime)"),
        ("residue equal to its prime", polys(0, lambda r: set_residue(r, 33538049)), "outside [0, prime)"),
        ("scale NaN", field("scale", float("nan")), "positive finite"),
        ("scale zero", field("scale", 0.0), "positive finite"),
        ("scale infinite", field("scale", float("inf")), "positive finite"),
        ("level past the chain", field("level", 7), "outside the modulus chain"),
        ("negative level", field("level", -1), "outside the modulus chain"),
        ("31-byte seed", polys(1, lambda r: {"seed": "ab" * 31}), "32 bytes"),
        ("seed that is not hex", polys(1, lambda r: {"seed": "zz" * 32}), "32 bytes"),
        ("seed that is not text", polys(1, lambda r: {"seed": 7}), "32 bytes"),
        ("seed where c0 stands", polys(0, lambda r: {"seed": "ab" * 32}), "malformed"),
        ("no polynomials", field("polys", []), "no polynomials"),
    ]  # fmt: skip


class TestDecodeValidation:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        program = poly_program()
        backend = CkksBackend(seed=5)
        store_dir = tmp_path_factory.mktemp("sessions")
        server = EvaServer(backend=backend, workers=1, batch_window=0.0,
                           session_store=SessionStore(store_dir))
        server.register("poly", program, options=OPTIONS)
        tcp = EvaTcpServer(server, port=0)
        tcp.start_background()
        kit = ClientKit(CompiledProgram.compile(program.graph, options=OPTIONS), backend=backend,
                        client_id="mallory")
        server.create_session("poly", "mallory", through_json(kit.export_evaluation_keys()))
        try:
            yield {"server": server, "tcp": tcp, "kit": kit, "store_dir": store_dir}
        finally:
            tcp.shutdown()
            tcp.server_close()
            server.close()

    @staticmethod
    def _bundle(kit):
        return through_json(kit.bundle_to_wire(kit.encrypt_inputs({"x": np.linspace(-1, 1, 64)})))

    def test_the_bug_a_hostile_residue_used_to_rotate_into_a_wrong_answer(self, served):
        kit = served["kit"]
        cipher = through_json(kit.context.encode_cipher(kit.context.encrypt([0.5], 25)))
        cipher["polys"][0] = set_residue(cipher["polys"][0], 2**40)
        with pytest.raises(SerializationError, match="outside"):
            kit.context.decode_cipher(cipher)
        # A bit-packed row holds any value below 2^width, its prime included.
        with bitpacked_residues():
            cipher = through_json(kit.context.encode_cipher(kit.context.encrypt([0.5], 25)))
            residues = unpack_residues(cipher["polys"][0])
            primes = kit.context.context.data_basis(0).primes
            residues[1, 0] = primes[1]
            cipher["polys"][0] = pack_residues(residues, primes)
        assert cipher["polys"][0]["bits"] == [prime.bit_length() for prime in primes]
        with pytest.raises(SerializationError, match="outside"):
            kit.context.decode_cipher(cipher)

    @pytest.mark.parametrize("name, edit, fragment", corrupt_ciphers(), ids=[c[0] for c in corrupt_ciphers()])
    def test_corrupt_ciphertexts_are_typed_errors_in_process_and_over_tcp(self, served, name, edit, fragment):
        server, kit = served["server"], served["kit"]
        bundle = self._bundle(kit)
        edit(bundle["ciphertexts"]["x"])
        live_before = server.sessions.get_attached(kit.compiled, "mallory").context.live_ciphertexts
        with pytest.raises(SerializationError) as caught:
            server.submit_encrypted("poly", copy.deepcopy(bundle), client_id="mallory").result(30)
        assert fragment in str(caught.value)
        host, port = served["tcp"].address
        with ServingClient(host, port, wire="binary") as client:
            with pytest.raises(ServingError, match="SerializationError") as caught:
                client.submit_bundle("poly", bundle, client_id="mallory")
            assert fragment in str(caught.value)
            # The connection lives on, and so does the session.
            good = client.submit_encrypted("poly", kit, {"x": np.linspace(-1, 1, 64)})["y"]
        assert math.isfinite(float(good[0]))
        context = server.sessions.get_attached(kit.compiled, "mallory").context
        assert context.live_ciphertexts == live_before  # nothing half-decoded was leaked

    @staticmethod
    def _corrupt_keys(kit):
        def first_pair(blob):
            return next(iter(blob["relin_key"].values()))

        def residue(value):
            def edit(blob):
                first_pair(blob)[0] = set_residue(first_pair(blob)[0], value)
            return edit

        def half(record):
            def edit(blob):
                first_pair(blob)[1] = record
            return edit

        def public(blob):
            blob["public_key"][1] = {"seed": "ab" * 16}

        def stray_prime(blob):
            blob["relin_key"]["97"] = first_pair(blob)

        cases = [
            ("negative residue in b", residue(-5), "outside [0, prime)"),
            ("residue of 2^40 in b", residue(2**40), "outside [0, prime)"),
            ("16-byte seed for a", half({"seed": "ab" * 16}), "32 bytes"),
            ("seed that is not hex", half({"seed": "xy" * 32}), "32 bytes"),
            ("16-byte public seed", public, "32 bytes"),
            ("digit for a prime outside the chain", stray_prime, "not a prime of the chain"),
        ]
        for name, edit, fragment in cases:
            blob = through_json(kit.export_evaluation_keys())
            edit(blob)
            yield name, blob, fragment
        with expanded_seeds():
            blob = through_json(kit.export_evaluation_keys())
        first_pair(blob)[1] = set_residue(first_pair(blob)[1], 2**40)
        yield "residue of 2^40 in a written-out a", blob, "outside [0, prime)"

    def test_corrupt_key_blobs_are_typed_errors_and_never_persisted(self, served):
        server, kit = served["server"], served["kit"]
        host, port = served["tcp"].address
        stored = sorted(path.name for path in served["store_dir"].iterdir())
        assert len(stored) == 1  # mallory's good session

        class Holder:  # what ServingClient.create_session asks of a kit
            client_id = "eve"

            def __init__(self, blob):
                self.blob = blob

            def export_evaluation_keys(self):
                return self.blob

        for name, blob, fragment in self._corrupt_keys(kit):
            with pytest.raises(SerializationError) as caught:
                server.create_session("poly", "eve", copy.deepcopy(blob))
            assert fragment in str(caught.value), name
            with ServingClient(host, port, wire="binary") as client:
                with pytest.raises(ServingError, match="SerializationError") as caught:
                    client.create_session("poly", Holder(blob))
                assert fragment in str(caught.value), name
                assert client.ping()
            assert sorted(path.name for path in served["store_dir"].iterdir()) == stored, name


# -- public and secret randomness -----------------------------------------------------------
class TestRandomnessSeparation:
    def test_publishing_the_keys_consumed_nothing_from_the_secret_stream(self):
        """The secret sampler's draws are exactly: s, then one error per public
        polynomial — a replica that draws nothing else reproduces ``b``."""
        from repro.ckks import CkksContext

        context = CkksContext(64, [25, 25, 30], enforce_security=False)
        keygen = KeyGenerator(context, seed=5)
        public = keygen.create_public_key()
        assert keygen.seed == SeedSource(5, KEY_SEEDS).next_seed()
        assert public.a == SeededUniform(keygen.seed, "public")

        replica = RlweSampler(5)
        s = replica.ternary_coefficients(64)
        assert np.array_equal(s, keygen.secret_key.coefficients)
        basis = context.data_basis(0)
        e = replica.error(basis)
        a = public.a.coefficients(basis)
        want = a.multiply(RnsPolynomial.from_int64_coefficients(basis, s)).add(e).negate()
        assert np.array_equal(public.b.residues, want.residues)

    def test_the_streams_of_one_test_seed_share_no_output(self):
        draws = {
            stream: sampling._generator(9, stream).integers(0, 2**62, 64).tolist() for stream in range(4)
        }
        flat = [value for values in draws.values() for value in values]
        assert len(set(flat)) == len(flat)
        assert draws[0] == np.random.default_rng(9).integers(0, 2**62, 64).tolist()

    def test_a_blob_never_carries_the_secret_key_or_an_unexpanded_secret(self):
        _, client = make_client(seed=None)
        secret = client.keygen.secret_key.coefficients
        blob = client.export_evaluation_keys()

        def packed(node):
            if isinstance(node, dict) and "b64" in node:
                yield unpack_residues(node)
            elif isinstance(node, dict):
                for value in node.values():
                    yield from packed(value)
            elif isinstance(node, list):
                for item in node:
                    yield from packed(item)

        prime = client.context.data_basis(0).primes[0]
        for residues in packed(blob):
            for row in residues:
                centered = np.where(row > prime // 2, row - prime, row)
                assert not np.array_equal(centered, secret)
        assert set(blob) == {"scheme", "poly_modulus_degree", "public_key", "relin_key", "galois_keys"}
