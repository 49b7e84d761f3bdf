"""Amortized serving latency for a rotation-bearing program: batched vs solo.

Slot batching amortizes a warm cached path trivially for a *slotwise*
polynomial; this benchmark targets exactly the workloads it used to exclude
— programs full of rotations.  The
Sobel kernel (9 rotations, squares, a polynomial square root) is compiled at
a vector size leaving spare slots, and the serving layer lane-lowers it on
demand: one homomorphic evaluation answers ``vec_size / lane`` images.

Both paths are *warm* (program compiled, session keys generated); the
difference under test is purely amortization:

* **solo**    — requests issued one at a time; each pays one full evaluation
  of the base compilation.
* **batched** — the same requests issued concurrently; the server resolves
  the lane-lowered variant and packs them into shared ciphertexts.

Every decrypted lane is checked against ``reference_sobel``.  The acceptance
bar is a >= 3x amortized speedup on the mock backend (the lane-lowered
program costs ~2-3x the base program per evaluation — two rotations and one
extra plaintext multiply per original rotation — while answering up to
``capacity`` requests at once).

Runs standalone (``python benchmarks/bench_serving_amortized.py``) for the CI
smoke, or under pytest-benchmark with the rest of the suite.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from repro.apps.sobel import build_sobel_program, random_image, reference_sobel
from repro.backend import MockBackend
from repro.serving import EvaServer

try:
    from conftest import print_table
except ImportError:  # standalone invocation without the benchmarks conftest
    def print_table(title, header, rows):
        print(f"\n=== {title} ===")
        for row in [header] + rows:
            print("  ".join(str(cell).ljust(18) for cell in row))

#: Side length of each request's image (64-pixel lanes).
IMAGE_SIZE = 8
#: Lane width implied by the image.
LANE = IMAGE_SIZE * IMAGE_SIZE
#: Ciphertext slot budget: 16 images per ciphertext.
VEC_SIZE = 16 * LANE
#: Served requests per measured run.
NUM_REQUESTS = 32
#: Reference-comparison tolerance (mock noise + sqrt approximation).
ATOL = 1e-2
#: Acceptance bar for the amortized speedup.
MIN_SPEEDUP = 3.0


def make_requests(count: int = NUM_REQUESTS):
    images = [random_image(IMAGE_SIZE, seed=seed) for seed in range(count)]
    return images, [{"image": image.reshape(-1)} for image in images]


def check(images, responses) -> None:
    for image, response in zip(images, responses):
        expected = reference_sobel(image).reshape(-1)
        np.testing.assert_allclose(response["edges"], expected, atol=ATOL)


def run(benchmark=None) -> float:
    program = build_sobel_program(IMAGE_SIZE, scale=30, vec_size=VEC_SIZE)
    images, requests = make_requests()
    # batch_window stays 0 so the solo phase is not (unfairly) slowed by a
    # straggler-collection linger: batching below comes purely from requests
    # queueing up while the single worker is busy evaluating.
    server = EvaServer(
        backend=MockBackend(seed=3),
        workers=1,
        max_batch=VEC_SIZE // LANE,
        batch_window=0.0,
    )
    server.register("sobel", program)

    # Warm both paths: base compilation + its session, then one batched round
    # to compile the lane variant and generate its session keys.
    server.request("sobel", requests[0])
    for future in [server.submit("sobel", r) for r in requests[: VEC_SIZE // LANE]]:
        future.result(120)

    start = time.perf_counter()
    solo_responses = [server.request("sobel", r) for r in requests]
    solo_seconds = time.perf_counter() - start
    check(images, solo_responses)
    assert all(r.batch_size == 1 for r in solo_responses)

    start = time.perf_counter()
    futures = [server.submit("sobel", r) for r in requests]
    batched_responses = [future.result(120) for future in futures]
    batched_seconds = time.perf_counter() - start
    check(images, batched_responses)
    largest = max(r.batch_size for r in batched_responses)
    assert largest > 1, "requests were never lane-batched"
    assert any(r.lane_width == LANE for r in batched_responses)

    speedup = solo_seconds / max(batched_seconds, 1e-12)
    print_table(
        "Amortized serving latency: rotation-bearing Sobel, solo vs lane-batched",
        ["Path", "Total (s)", "Per request (ms)", "Speedup"],
        [
            [
                "solo (1 eval/request)",
                f"{solo_seconds:.3f}",
                f"{solo_seconds / NUM_REQUESTS * 1e3:.2f}",
                "1.0x",
            ],
            [
                f"lane-batched (<= {VEC_SIZE // LANE}/eval)",
                f"{batched_seconds:.3f}",
                f"{batched_seconds / NUM_REQUESTS * 1e3:.2f}",
                f"{speedup:.1f}x",
            ],
        ],
    )
    print(f"  largest batch {largest}, lane width {LANE}, vec size {VEC_SIZE}")

    assert speedup >= MIN_SPEEDUP, (
        f"lane-batched path only {speedup:.2f}x faster than solo "
        f"({batched_seconds:.3f}s vs {solo_seconds:.3f}s)"
    )

    payload = {
        "benchmark": "serving_amortized",
        "requests": NUM_REQUESTS,
        "lane_width": LANE,
        "vec_size": VEC_SIZE,
        "solo_seconds": solo_seconds,
        "batched_seconds": batched_seconds,
        "largest_batch": largest,
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
    }
    print(json.dumps(payload))

    if benchmark is not None:
        # Benchmark target: one full batched round end to end.
        def batched_round():
            futures = [server.submit("sobel", r) for r in requests]
            for future in futures:
                future.result(120)

        benchmark.pedantic(batched_round, rounds=3, iterations=1)
    else:
        # Standalone (CI) runs leave the payload on disk for the regression
        # gate and artifact upload.  Fresh output lives under bench-out/ so
        # it can never collide with the committed BENCH_* baseline on a
        # case-insensitive filesystem.
        import os

        os.makedirs("bench-out", exist_ok=True)
        with open(
            "bench-out/serving_amortized.json", "w", encoding="utf-8"
        ) as handle:
            json.dump(payload, handle, indent=2)
    server.close()
    return speedup


def test_serving_amortized(benchmark):
    run(benchmark)


if __name__ == "__main__":
    achieved = run(None)
    print(f"amortized speedup ok: {achieved:.1f}x >= {MIN_SPEEDUP:.0f}x")
    sys.exit(0)
