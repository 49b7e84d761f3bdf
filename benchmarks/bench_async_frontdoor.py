"""Connection scaling of the asyncio front door: idle sessions for free.

A thread-per-connection listener makes a long-lived client cost an OS
thread whether it is evaluating or idle.  The front door
(:mod:`repro.serving.aionet`, the only listener) multiplexes every
connection on one event loop; a bounded daemon pool runs only the requests
actually in flight, so an *idle* connection costs a file descriptor and a
heap object.

This benchmark opens a large pool of idle connections against an in-process
server and then drives mixed JSON and binary traffic through the crowd:

* **sustained connections** — how many of the target idle connections the
  server actually reports live (``stats`` / ``connection_infos``) while
  traffic flows.  Gated: the committed baseline sustains the full target.
* **threads per idle connection** — additional OS threads divided by idle
  connections.  The front door sits near zero (the dispatch pool is
  bounded and idle connections hold no thread); a thread per connection
  would read ~1.0.  Reported for context, not gated (absolute thread counts
  wobble with pool retirement timing).
* **mixed traffic** — JSON-lines and binary-frame submits interleaved while
  the idle crowd stays connected; every reply must be correct.

Runs standalone for the CI gate or under pytest-benchmark with the suite.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

import numpy as np

from repro.core.compiler import CompilerOptions
from repro.frontend import EvaProgram, input_encrypted, output
from repro.serving import EvaServer, EvaTcpServer, ServingClient

try:
    from conftest import print_table
except ImportError:  # standalone invocation without the benchmarks conftest
    def print_table(title, header, rows):
        print(f"\n=== {title} ===")
        for row in [header] + rows:
            print("  ".join(str(cell).ljust(18) for cell in row))

#: Idle connections held open while traffic flows (the acceptance bar is
#: >= 1000 concurrent idle sessions).
TARGET_CONNECTIONS = 1000
#: Mixed-traffic submits per protocol while the idle crowd is connected.
TRAFFIC_PER_MODE = 20
VEC_SIZE = 64
OPTIONS = CompilerOptions(max_rescale_bits=25)


def make_program() -> EvaProgram:
    program = EvaProgram("axpy", vec_size=VEC_SIZE, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        output("y", x * 3.0 + 1.0, 25)
    return program


def open_idle_connections(host: str, port: int, count: int) -> list:
    """Raw sockets that connect, send nothing, and stay open."""
    sockets = []
    for _ in range(count):
        sock = socket.create_connection((host, port), timeout=10.0)
        sockets.append(sock)
    return sockets


def run_traffic(host: str, port: int) -> dict:
    xv = np.linspace(-1.0, 1.0, VEC_SIZE)
    expected = xv * 3.0 + 1.0
    ok = {"json": 0, "binary": 0}
    started = time.perf_counter()
    for rep in range(TRAFFIC_PER_MODE):
        for mode in ("json", "binary"):
            with ServingClient(host, port, wire=mode) as client:
                outputs = client.submit("axpy", {"x": xv}, client_id=f"{mode}-{rep}")
                if np.max(np.abs(np.asarray(outputs["y"])[:VEC_SIZE] - expected)) < 1e-3:
                    ok[mode] += 1
    return {
        "json_ok": ok["json"],
        "binary_ok": ok["binary"],
        "requests": 2 * TRAFFIC_PER_MODE,
        "seconds": time.perf_counter() - started,
    }


def run(benchmark=None) -> dict:
    program = make_program()
    server = EvaServer(workers=2, batch_window=0.0)
    server.register("axpy", program, options=OPTIONS)
    tcp = EvaTcpServer(server, port=0)
    tcp.start_background()
    host, port = tcp.address

    threads_before = threading.active_count()
    idle = []
    try:
        connect_started = time.perf_counter()
        idle = open_idle_connections(host, port, TARGET_CONNECTIONS)
        # Let the event loop accept the backlog before counting.
        deadline = time.time() + 30.0
        sustained = 0
        while time.time() < deadline:
            sustained = len(tcp.connection_infos())
            if sustained >= TARGET_CONNECTIONS:
                break
            time.sleep(0.05)
        connect_seconds = time.perf_counter() - connect_started

        traffic = run_traffic(host, port)
        # The idle crowd must still be connected after serving traffic
        # through it (the traffic clients add/remove their own entries).
        sustained = min(sustained, len(idle))
        still_open = sum(
            1 for info in tcp.connection_infos() if info["requests"] == 0
        )
        threads_during = threading.active_count()
        if benchmark is not None:
            benchmark.pedantic(
                lambda: run_traffic(host, port), rounds=1, iterations=1
            )
    finally:
        for sock in idle:
            try:
                sock.close()
            except OSError:
                pass
        tcp.shutdown()
        tcp.server_close()
        server.close()

    threads_added = max(threads_during - threads_before, 0)
    per_connection = threads_added / max(TARGET_CONNECTIONS, 1)

    print_table(
        f"Async front door with {TARGET_CONNECTIONS} idle connections",
        ["Metric", "Value"],
        [
            ["sustained idle connections", sustained],
            ["still open after traffic", still_open],
            ["connect wall", f"{connect_seconds:.2f} s"],
            ["threads added", threads_added],
            ["threads per idle conn", f"{per_connection:.4f}"],
            ["json ok", f"{traffic['json_ok']}/{TRAFFIC_PER_MODE}"],
            ["binary ok", f"{traffic['binary_ok']}/{TRAFFIC_PER_MODE}"],
            ["traffic wall", f"{traffic['seconds']:.2f} s"],
        ],
    )

    assert sustained >= TARGET_CONNECTIONS, (
        f"only {sustained} of {TARGET_CONNECTIONS} idle connections were "
        "sustained by the async front door"
    )
    assert still_open >= TARGET_CONNECTIONS, (
        f"idle connections were dropped while serving traffic "
        f"({still_open} of {TARGET_CONNECTIONS} still open)"
    )
    assert traffic["json_ok"] == TRAFFIC_PER_MODE, "JSON traffic failed"
    assert traffic["binary_ok"] == TRAFFIC_PER_MODE, "binary traffic failed"

    payload = {
        "benchmark": "async_frontdoor",
        "target_connections": TARGET_CONNECTIONS,
        "connections": {
            "sustained": sustained,
            "still_open_after_traffic": still_open,
            "connect_seconds": connect_seconds,
        },
        "threads": {
            "added": threads_added,
            "per_connection": per_connection,
        },
        "traffic": {
            "json_ok": traffic["json_ok"],
            "binary_ok": traffic["binary_ok"],
            "requests": traffic["requests"],
            "ok_fraction": (traffic["json_ok"] + traffic["binary_ok"])
            / traffic["requests"],
            "seconds": traffic["seconds"],
        },
    }
    print(json.dumps(payload))

    if benchmark is None:
        import os

        os.makedirs("bench-out", exist_ok=True)
        with open("bench-out/async_frontdoor.json", "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
    return payload


def test_async_frontdoor(benchmark):
    run(benchmark)


if __name__ == "__main__":
    result = run(None)
    print(
        f"async frontdoor ok: {result['connections']['sustained']} idle "
        f"connections sustained, {result['threads']['per_connection']:.4f} "
        f"threads/conn, {result['traffic']['json_ok']}+"
        f"{result['traffic']['binary_ok']} mixed requests served"
    )
    sys.exit(0)
