"""Bytes-on-wire and session-setup latency: binary frames vs JSON lines.

The serving stack speaks two protocols on the same listener — the legacy
JSON-lines encoding and the ``repro.wire`` binary framing (varint-tagged
records, raw little-endian blobs, chunked streaming uploads).  This
benchmark quantifies what the binary path buys on the one workload where
encoding actually dominates: shipping a client's evaluation-key set
(public + relin + galois keys, several MB for a rotation program) in
``create_session``, followed by an encrypted submit.

Both clients talk to the *same* ``EvaTcpServer`` over real sockets; the
only variable is ``ServingClient(wire=...)``.  Measured:

* **bytes on wire** — client-side ``bytes_sent + bytes_received`` for one
  session creation plus one encrypted request/response.  Both framings
  carry the same records — the uniform half of every key and fresh
  ciphertext as a 32-byte seed, every residue at its prime's bit width — so
  the only difference is how a blob travels: JSON pays base64 (4/3
  expansion) on every key and ciphertext blob, binary ships raw bytes, and
  the ratio is ~1.33x.  The acceptance bar is a >= 1.3x reduction.  Blob
  sizes are fixed by the parameter set, so both totals are deterministic
  up to the reply's timing text: the ratio and the binary total are the
  gated metrics in check_regression.py.
* **session-setup latency** — min-of-N wall clock for ``create_session``
  on a fresh connection, the two protocols alternating rep by rep (and which
  goes first alternating too) so a slow spell of a shared host falls on
  both sides alike.  Binary skips the multi-MB base64 encode, the
  giant-string JSON parse, and streams the key set as chunked frames.
  Latency is asserted faster here but not CI-gated (too noisy on shared
  runners).

Uses the real RNS-CKKS backend so the key material is genuine (the mock
backend's key export has no blobs to speak of).  Runs standalone
(``python benchmarks/bench_wire.py``) for the CI smoke, or under
pytest-benchmark with the rest of the suite.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from repro.api import ClientKit, CompiledProgram
from repro.backend import CkksBackend
from repro.core.compiler import CompilerOptions
from repro.core.executor import execute_reference
from repro.frontend import EvaProgram, input_encrypted, output
from repro.serving import EvaServer, EvaTcpServer, ServingClient

try:
    from conftest import print_table
except ImportError:  # standalone invocation without the benchmarks conftest
    def print_table(title, header, rows):
        print(f"\n=== {title} ===")
        for row in [header] + rows:
            print("  ".join(str(cell).ljust(18) for cell in row))

#: Slot count: degree 4096 under the pure-python CKKS profile, which puts
#: the exported key set (public + relin + 2 galois keys) in the low MB —
#: big enough to cross the binary path's chunked-streaming threshold.
VEC_SIZE = 512
#: Pure-python CKKS supports coefficient primes <= 30 bits.
OPTIONS = CompilerOptions(max_rescale_bits=25)
#: Session creations per protocol, alternating; latency is the min across reps.
SETUP_REPS = 7
#: Acceptance bar for bytes-on-wire reduction (JSON bytes / binary bytes).
MIN_BYTES_RATIO = 1.3
#: Decrypted-output tolerance against the plaintext reference.
ATOL = 0.05


def make_rotation_program() -> EvaProgram:
    """A rotation-bearing polynomial: galois keys make the key set heavy."""
    program = EvaProgram("rotpoly", vec_size=VEC_SIZE, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", x * x * 0.5 + (x << 1) + (x << 4) + 1.0, 25)
    return program


def measure_setup(host: str, port: int, kit) -> dict:
    """Setup latency per protocol: the min of ``SETUP_REPS`` session
    creations each, the protocols alternating rep by rep."""
    setup_seconds = {"json": [], "binary": []}
    for rep in range(SETUP_REPS):
        for mode in ("json", "binary") if rep % 2 == 0 else ("binary", "json"):
            with ServingClient(host, port, wire=mode) as client:
                start = time.perf_counter()
                session = client.create_session(
                    "rotpoly", kit, client_id=f"{mode}-{rep}"
                )
                setup_seconds[mode].append(time.perf_counter() - start)
                assert session["client_id"] == f"{mode}-{rep}"
    return {mode: min(seconds) for mode, seconds in setup_seconds.items()}


def measure_bytes(host: str, port: int, mode: str, kit, xv: np.ndarray) -> dict:
    """Bytes for the canonical workload — one session + one encrypted
    roundtrip — on a single connection, isolated from the setup reps."""
    with ServingClient(host, port, wire=mode) as client:
        assert client.protocol == mode
        client.create_session("rotpoly", kit, client_id=f"{mode}-bytes")
        setup_bytes = client.bytes_sent + client.bytes_received
        outputs = client.submit_encrypted(
            "rotpoly", kit, {"x": xv}, client_id=f"{mode}-bytes"
        )
        total_bytes = client.bytes_sent + client.bytes_received
    reference = execute_reference(kit.compiled.source, {"x": xv})
    assert np.max(np.abs(outputs["y"][: len(xv)] - reference["y"][: len(xv)])) < ATOL, (
        f"{mode} encrypted roundtrip diverged from reference"
    )
    return {"setup_bytes": setup_bytes, "total_bytes": total_bytes}


def run(benchmark=None) -> float:
    program = make_rotation_program()
    backend = CkksBackend(seed=11)
    server = EvaServer(backend=backend, workers=1, batch_window=0.0)
    server.register("rotpoly", program, options=OPTIONS)
    tcp = EvaTcpServer(server, port=0)
    tcp.start_background()
    host, port = tcp.address

    kit = ClientKit(
        CompiledProgram.compile(program.graph, options=OPTIONS),
        backend=backend,
        client_id="bench",
    )
    key_bytes = len(json.dumps(kit.export_evaluation_keys()).encode("utf-8"))
    xv = np.linspace(-1.0, 1.0, 32)

    try:
        setup = measure_setup(host, port, kit)
        results = {
            mode: dict(measure_bytes(host, port, mode, kit, xv), setup_seconds=setup[mode])
            for mode in ("json", "binary")
        }
    finally:
        tcp.shutdown()
        tcp.server_close()
        server.close()

    ratio = results["json"]["total_bytes"] / max(results["binary"]["total_bytes"], 1)
    speedup = results["json"]["setup_seconds"] / max(
        results["binary"]["setup_seconds"], 1e-12
    )
    print_table(
        "Wire protocol: session + encrypted submit, JSON lines vs binary frames",
        ["Protocol", "Setup (ms)", "Setup bytes", "Total bytes"],
        [
            [
                mode,
                f"{results[mode]['setup_seconds'] * 1e3:.1f}",
                f"{results[mode]['setup_bytes']:,}",
                f"{results[mode]['total_bytes']:,}",
            ]
            for mode in ("json", "binary")
        ],
    )
    print(
        f"  key set {key_bytes / 1e6:.2f} MB (json-encoded); "
        f"bytes ratio {ratio:.3f}x, setup speedup {speedup:.2f}x"
    )

    assert ratio >= MIN_BYTES_RATIO, (
        f"binary wire only {ratio:.3f}x smaller than JSON "
        f"({results['binary']['total_bytes']:,} vs "
        f"{results['json']['total_bytes']:,} bytes)"
    )
    assert speedup > 1.0, (
        f"binary session setup not faster: {results['binary']['setup_seconds']:.3f}s "
        f"vs JSON {results['json']['setup_seconds']:.3f}s"
    )

    payload = {
        "benchmark": "wire",
        "vec_size": VEC_SIZE,
        "key_json_bytes": key_bytes,
        "bytes": {
            "json": results["json"]["total_bytes"],
            "binary": results["binary"]["total_bytes"],
            "ratio": ratio,
            "min_ratio": MIN_BYTES_RATIO,
        },
        "setup": {
            "json_seconds": results["json"]["setup_seconds"],
            "binary_seconds": results["binary"]["setup_seconds"],
            "speedup": speedup,
        },
    }
    print(json.dumps(payload))

    if benchmark is not None:
        # Benchmark target: one binary-wire session creation end to end.
        def binary_setup():
            with ServingClient(host, port, wire="binary") as client:  # pragma: no cover
                client.create_session("rotpoly", kit, client_id="bench-loop")

        # The server is closed by now in the pytest-benchmark path; rebuild.
        server2 = EvaServer(backend=backend, workers=1, batch_window=0.0)
        server2.register("rotpoly", program, options=OPTIONS)
        tcp2 = EvaTcpServer(server2, port=0)
        tcp2.start_background()
        host, port = tcp2.address
        try:
            benchmark.pedantic(binary_setup, rounds=3, iterations=1)
        finally:
            tcp2.shutdown()
            tcp2.server_close()
            server2.close()
    else:
        # Standalone (CI) runs leave the payload on disk for the regression
        # gate and artifact upload; bench-out/ keeps fresh output from ever
        # colliding with the committed BENCH_* baseline.
        import os

        os.makedirs("bench-out", exist_ok=True)
        with open("bench-out/wire.json", "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
    return ratio


def test_wire(benchmark):
    run(benchmark)


if __name__ == "__main__":
    achieved = run(None)
    print(f"wire bytes ratio ok: {achieved:.2f}x >= {MIN_BYTES_RATIO:.1f}x")
    sys.exit(0)
