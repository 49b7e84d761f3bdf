"""Bit-packed residues, and key sets without an unused relinearization key.

A connection granted the ``bitpacked`` hello feature carries every RNS residue
matrix at its primes' bit widths (``{"dtype": "bits", "bits": [...]}``), and a
client kit for a program with no RELINEARIZE neither generates nor sends a
relinearization key.  This file pins, in order: the packer (a property round
trip, the layout, the five refusals over both framings);
the exact record sizes of the rotation program at N = 4096; which record
shapes each pairing of client and server exchanges, directly and through a
one-shard router; the session store; key sets with and without a
relinearization key, and the written-out fallback's cache.
"""

from __future__ import annotations

import base64
import copy
import re
import threading
from contextlib import nullcontext
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import wire
from repro.api import ClientKit, CompiledProgram
from repro.backend import CkksBackend
from repro.ckks.ntt import ntt_rows
from repro.core.executor import execute_reference
from repro.core.serialization import packing
from repro.core.serialization.packing import (
    bitpacked_residues,
    carries_bitpacked,
    expanded_seeds,
    pack_residues,
    raw_blobs,
    unpack_residues,
)
from repro.errors import ParameterError, SerializationError, ServingError
from repro.serving import EvaServer, EvaTcpServer, ServingClient, SessionStore, ShardConfig
from repro.serving import netserver
from test_seeded import OPTIONS, poly_program, rotate_sum_program, seeded_ack, through_json

#: Widths of the rotation program's chain at N = 4096 (data primes, then the two
#: special ones: one digit of both data primes over ``P = q_2 q_3``).
WIDTHS = [26, 25, 29, 28]


def reference_payload(residues, widths) -> bytes:
    """The layout one value at a time: row ``k`` is the little-endian integer
    whose bits ``i·b_k … i·b_k + b_k − 1`` are value ``i``, rows concatenated."""
    payload = b""
    for row, width in zip(residues, widths):
        bits = "".join(format(int(value), f"0{width}b")[::-1] for value in row)  # least significant first
        payload += int(bits[::-1], 2).to_bytes(len(bits) // 8, "little")
    return payload


def bits_record(residues, widths, framing="b64"):
    """A bit-packed record of ``residues`` at ``widths`` (stand-in primes of those widths)."""
    primes = [(1 << width) - 1 for width in widths]
    with bitpacked_residues(), (raw_blobs() if framing == "raw" else nullcontext()):
        return pack_residues(residues, primes)


# -- the packer ----------------------------------------------------------------------------
class TestPacker:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 32), min_size=1, max_size=6),
        st.sampled_from([8, 16, 64, 256, 1024, 4096, 8192]),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["raw", "b64"]),
    )
    def test_round_trip_at_every_width(self, widths, degree, seed, framing):
        rng = np.random.default_rng(seed)
        residues = np.stack([rng.integers(0, 1 << width, degree) for width in widths])
        record = bits_record(residues, widths, framing)
        assert record["dtype"] == "bits" and record["bits"] == widths
        assert record["shape"] == [len(widths), degree]
        assert bytes(packing._payload(record)) == reference_payload(residues, widths)
        assert np.array_equal(unpack_residues(record), residues)
        envelope, blobs = wire.split_message({"c0": record})
        assert np.array_equal(unpack_residues(wire.rehydrate(envelope, blobs)["c0"]), residues)

    def test_a_row_is_the_little_endian_integer_of_its_values(self):
        residues = np.array([[5, 0, 7, 1, 2, 3, 6, 4], list(range(8))])
        record = bits_record(residues, [3, 4], "raw")
        rows = [record["raw"][:3], record["raw"][3:]]
        for row, values, width in zip(rows, residues, [3, 4]):
            want = sum(int(v) << (i * width) for i, v in enumerate(values))
            assert int.from_bytes(row, "little") == want
        assert record["raw"] == reference_payload(residues, [3, 4])

    def test_writers_fall_back_to_words_outside_the_context_or_the_layout(self):
        residues = np.arange(16).reshape(2, 8)
        assert pack_residues(residues, [97, 101])["dtype"] == "u1"
        with bitpacked_residues():
            assert pack_residues(residues, [97, 101])["bits"] == [7, 7]
            assert pack_residues(residues)["dtype"] == "u1"  # no primes, no widths
            assert pack_residues(np.arange(8).reshape(2, 4), [97, 101])["dtype"] == "u1"  # N = 4
            assert pack_residues(residues, [97, 2**33])["dtype"] == "u1"  # wider than a word

    def test_a_message_tree_says_whether_it_carries_bits(self):
        record = bits_record(np.zeros((1, 8), dtype=np.int64), [3])
        assert carries_bitpacked({"a": [1, {"b": record}]})
        assert not carries_bitpacked({"a": [1, {"b": pack_residues(np.zeros((1, 8)))}]})


def malformed_records():
    """(name, edit of a bit-packed c0 record, fragment of the error, and of a
    server's error where it differs) for the five refusals."""

    def field(name, value):
        def edit(record):
            record[name] = value(record)
        return edit

    def short_payload(record):
        raw = packing._payload(record)
        record["b64"] = base64.b64encode(bytes(raw)[:-1]).decode("ascii")

    # A server checks a polynomial's declared shape against its basis first.
    basis = "basis expects (2, 4096)"
    return [
        ("shape not 2-D", field("shape", lambda r: [r["shape"][0] * r["shape"][1]]), "[rows, N]", basis),
        ("a width missing", field("bits", lambda r: r["bits"][:-1]), "widths, one a row", None),
        ("a width of 33", field("bits", lambda r: [33] + r["bits"][1:]), "1..32", None),
        ("a width of 0", field("bits", lambda r: [0] + r["bits"][1:]), "1..32", None),
        ("N times a width not whole bytes", field("shape", lambda r: [r["shape"][0], 4092]), "whole bytes", basis),
        ("payload a byte short", short_payload, "need", None),
    ]  # fmt: skip


# -- one server, two programs --------------------------------------------------------------
class OneShardCluster:
    """What a router connection forwards through: one upstream per worker thread."""

    recipe = ShardConfig()

    def __init__(self, address):
        self.address = address
        self.upstreams = {}

    def _call(self, client_id, fn):
        key = threading.get_ident()
        if key not in self.upstreams:
            self.upstreams[key] = ServingClient(*self.address, wire="binary")
        return fn(self.upstreams[key])


@pytest.fixture(scope="module")
def served():
    backend = CkksBackend(seed=11)
    server = EvaServer(backend=backend, workers=1, batch_window=0.0)
    programs = {"rotate_sum": rotate_sum_program(), "poly": poly_program()}
    kits = {}
    for name, program in programs.items():
        server.register(name, program, options=OPTIONS)
        compiled = CompiledProgram.compile(program.graph, options=OPTIONS)
        kits[name] = ClientKit(compiled, backend=backend, client_id="alice")
    tcp = EvaTcpServer(server, port=0)
    tcp.start_background()
    try:
        yield {"server": server, "tcp": tcp, "kits": kits, "programs": programs}
    finally:
        tcp.shutdown()
        tcp.server_close()
        server.close()


def rotate_inputs():
    return {"x": np.linspace(-1, 1, 1024) / 1024}


def assert_answers(served, name, inputs, answer):
    want = execute_reference(served["programs"][name].graph, inputs)["y"]
    assert np.allclose(answer[: len(want)], want, atol=0.1)


class TestRefusals:
    @pytest.mark.parametrize("mode", ["json", "binary"])
    @pytest.mark.parametrize(
        "name, edit, fragment, served_fragment", malformed_records(), ids=[c[0] for c in malformed_records()]
    )
    def test_malformed_records_are_typed_errors_over_either_framing(
        self, served, mode, name, edit, fragment, served_fragment
    ):
        kit = served["kits"]["rotate_sum"]
        served["server"].create_session("rotate_sum", "alice", kit.export_evaluation_keys())
        with bitpacked_residues():
            bundle = through_json(kit.bundle_to_wire(kit.encrypt_inputs(rotate_inputs())))
        record = bundle["ciphertexts"]["x"]["polys"][0]
        assert record["bits"] == WIDTHS[:2]
        edit(record)
        with pytest.raises(SerializationError, match=re.escape(fragment)):
            unpack_residues(copy.deepcopy(record))
        with ServingClient(*served["tcp"].address, wire=mode) as client:
            with pytest.raises(ServingError, match="SerializationError") as caught:
                client.submit_bundle("rotate_sum", bundle, client_id="alice")
            assert (served_fragment or fragment) in str(caught.value)
            assert client.ping()  # the connection lives on


# -- exact sizes at N = 4096 ----------------------------------------------------------------
class TestExactBytes:
    def test_the_rotation_program_records(self, served):
        kit, server = served["kits"]["rotate_sum"], served["server"]
        keys = kit.export_evaluation_keys()
        assert "relin_key" not in keys and "relin_key" in served["kits"]["poly"].export_evaluation_keys()
        server.create_session("rotate_sum", "alice", keys)
        bundle = kit.encrypt_inputs(rotate_inputs())
        with raw_blobs():
            words = kit.bundle_to_wire(bundle)
            with bitpacked_residues():
                bits = kit.bundle_to_wire(bundle)
                galois = kit.export_evaluation_keys()["galois_keys"]
        assert len(words["ciphertexts"]["x"]["polys"][0]["raw"]) == 32768
        c0 = bits["ciphertexts"]["x"]["polys"][0]
        assert c0["bits"] == [26, 25] and len(c0["raw"]) == 26112
        for key in galois.values():
            # One digit of 108 bits per coefficient: 55 296 bytes where two
            # digits of [26, 25, 31] took 2 x 41 984.
            (b, a), = key.values()
            assert b["bits"] == WIDTHS and len(b["raw"]) == 55296 and "seed" in a
        response = server.request_encrypted("rotate_sum", bits, client_id="alice")
        with raw_blobs(), bitpacked_residues():
            reply = response.to_wire()
        response.release()
        polys = reply["ciphertexts"]["y"]["polys"]
        assert sum(len(poly["raw"]) for poly in polys) == 52224  # 65 536 as u4 words
        answer = kit.decrypt_outputs(kit.outputs_from_wire(reply))["y"]
        assert_answers(served, "rotate_sum", rotate_inputs(), answer)


# -- who sends what ---------------------------------------------------------------------------
CLIENTS = ["new", "seeded only", "json"]
SERVERS = ["new", "pre-bitpacked"]


class TestCompatibilityMatrix:
    @staticmethod
    def _spy(monkeypatch, server):
        seen = []
        create, submit = server.create_session, server.request_encrypted
        monkeypatch.setattr(server, "create_session", lambda *a: seen.append(a[2]) or create(*a))
        monkeypatch.setattr(server, "request_encrypted", lambda n, b, **kw: seen.append(b) or submit(n, b, **kw))
        return seen

    @pytest.mark.parametrize("path", ["direct", "router"])
    @pytest.mark.parametrize("server_kind", SERVERS)
    @pytest.mark.parametrize("client_kind", CLIENTS)
    def test_a_peer_sees_bits_only_when_both_sides_read_them(
        self, served, monkeypatch, client_kind, server_kind, path
    ):
        if server_kind == "pre-bitpacked":  # the shard's acks, and the router's
            monkeypatch.setattr(netserver, "hello_ack", seeded_ack)
        seen = self._spy(monkeypatch, served["server"])
        address, router = served["tcp"].address, None
        if path == "router":
            router = netserver.ClusterTcpServer(OneShardCluster(address), port=0)
            router.start_background()
            address = router.address
        kit = served["kits"]["rotate_sum"]
        try:
            with monkeypatch.context() as hello:  # the router's upstream, opened later, offers both
                if client_kind == "seeded only":
                    hello.setattr(netserver, "build_hello", lambda mode: dict(wire.build_hello(mode), features=["seeded"]))
                client = ServingClient(*address, wire="json" if client_kind == "json" else "binary")
            with client:
                both = client_kind == "new" and server_kind == "new"
                assert (wire.BITPACKED in client.features) == both
                client.create_session("rotate_sum", kit)
                inputs = rotate_inputs()
                reply = client.submit_bundle(
                    "rotate_sum", partial(kit.bundle_to_wire, kit.encrypt_inputs(inputs)), client_id="alice"
                )
            if router is not None:  # whatever the router and its shard negotiated between them
                (upstream,) = router.cluster.upstreams.values()
                assert (wire.BITPACKED in upstream.features) == (server_kind == "new")
        finally:
            if router is not None:
                router.shutdown()
                router.server_close()
                for upstream in router.cluster.upstreams.values():
                    upstream.close()
        assert len(seen) == 2 and [carries_bitpacked(message) for message in seen] == [both, both]
        assert carries_bitpacked(reply) == both
        answer = kit.decrypt_outputs(kit.outputs_from_wire(reply))["y"]
        assert_answers(served, "rotate_sum", inputs, answer)


# -- stored sessions ---------------------------------------------------------------------------
def test_a_bitpacked_session_is_stored_smaller_and_restores(served, monkeypatch, tmp_path):
    kit, program = served["kits"]["rotate_sum"], served["programs"]["rotate_sum"]
    compiled = kit.compiled
    store_server = EvaServer(backend=CkksBackend(seed=11), workers=1, session_store=SessionStore(tmp_path))
    tcp = EvaTcpServer(store_server, port=0)
    try:
        store_server.register("rotate_sum", program, options=OPTIONS)
        tcp.start_background()
        with ServingClient(*tcp.address, wire="binary") as client:
            client.create_session("rotate_sum", kit, client_id="alice")  # bit-packed
        with monkeypatch.context() as old:  # the parent format: u4 words
            old.setattr(netserver, "hello_ack", seeded_ack)
            with ServingClient(*tcp.address, wire="binary") as client:
                client.create_session("rotate_sum", kit, client_id="bob")
    finally:
        tcp.shutdown()
        tcp.server_close()
        store_server.close()
    store = SessionStore(tmp_path)
    alice, bob = (store.path_for(name, compiled) for name in ("alice", "bob"))
    assert carries_bitpacked(store.load("alice", compiled)) and not carries_bitpacked(store.load("bob", compiled))
    assert alice.stat().st_size < 0.87 * bob.stat().st_size
    restarted = EvaServer(backend=CkksBackend(seed=11), workers=1, session_store=SessionStore(tmp_path))
    try:
        restarted.register("rotate_sum", program, options=OPTIONS)
        for client_id in ("alice", "bob"):
            bundle = through_json(kit.bundle_to_wire(kit.encrypt_inputs(rotate_inputs())))
            response = restarted.request_encrypted("rotate_sum", bundle, client_id=client_id)
            answer = kit.decrypt_outputs(kit.outputs_from_wire(through_json(response.to_wire())))["y"]
            response.release()
            assert_answers(served, "rotate_sum", rotate_inputs(), answer)
        assert restarted.sessions.summary()["client_keyed"] == 2
    finally:
        restarted.close()


# -- the relinearization key ------------------------------------------------------------------
class TestRelinearizationKey:
    def test_a_kit_holds_one_exactly_when_its_programs_relinearize(self, served):
        rotate, poly = served["kits"]["rotate_sum"], served["kits"]["poly"]
        assert not rotate.compiled.relinearizes and poly.compiled.relinearizes
        for kit, held in [(rotate, False), (poly, True)]:
            assert kit.context.can_relinearize == held
            assert ("relin_key" in kit.export_evaluation_keys()) == held

    def test_a_relinearizing_program_against_keys_without_one_is_refused_before_evaluation(self, served):
        server, kit = served["server"], served["kits"]["poly"]
        keys = kit.export_evaluation_keys()
        del keys["relin_key"]
        server.create_session("poly", "carol", keys)
        session = server.sessions.get_attached(kit.compiled, "carol")
        bundle = through_json(kit.bundle_to_wire(kit.encrypt_inputs({"x": np.linspace(-1, 1, 64)})))
        with pytest.raises(ParameterError, match="no relinearization key"):
            server.request_encrypted("poly", bundle, client_id="carol")
        assert session.context.op_count == 0 and session.context.live_ciphertexts == 0
        with ServingClient(*served["tcp"].address) as client:
            with pytest.raises(ServingError, match="ParameterError"):
                client.submit_bundle("poly", bundle, client_id="carol")

    def test_the_written_out_fallback_transforms_each_uniform_half_once(self):
        compiled = CompiledProgram.compile(rotate_sum_program().graph, options=OPTIONS)
        kit = ClientKit(compiled, backend=CkksBackend(seed=4))
        exports, rows = [], []
        for _ in range(2):
            before = ntt_rows()
            with expanded_seeds():
                exports.append(through_json(kit.export_evaluation_keys()))
            rows.append(ntt_rows() - before)
        # The public a over the data basis (2 rows), one digit of ten Galois keys
        # (4 rows each; two digits of 3 rows while each prime was a digit).
        assert rows == [2 + 10 * 1 * 4, 0]
        assert exports[0] == exports[1]
