"""Rotation cost of lane batching: the lane tax against the solo program.

Lane lowering (PR 6) made rotation-bearing kernels batchable: every rotation
becomes a masked pair, an in-lane rotation and a wrap branch composed after
it.  Hoisting and BSGS key decomposition claw that back.  This benchmark
measures what is left of the tax on the paper's two rotation-heavy kernels,
Sobel and Harris, against the solo (unbatched) compilation of the same
program:

* **rotation ratio** — ROT ops per batched evaluation over ROT ops per
  unbatched (solo) evaluation.  One batched evaluation serves a full
  ciphertext of lanes, so anything near 1.0 means batching is effectively
  rotation-free; the acceptance bar is <= 1.2x.
* **key steps** — Galois keys a client generates and uploads per session for
  the lane variant.  The bar is the solo program's key steps plus one: the
  wrap step ``vec_size - w`` every lane step shares.

Both metrics are compile-time facts — deterministic across hosts, which is
why they are the gated metrics in check_regression.py.  Runs standalone
(``python benchmarks/bench_rotation_cost.py``) for the CI gate, or under
pytest-benchmark with the rest of the suite (the benchmark target is the
lane-variant compilation itself).
"""

from __future__ import annotations

import json
import sys

from repro.apps.harris import build_harris_program
from repro.apps.sobel import build_sobel_program
from repro.backend.cost_model import DEFAULT_COST_MODEL
from repro.core import CompilerOptions, compile_program
from repro.core.types import Op

try:
    from conftest import print_table
except ImportError:  # standalone invocation without the benchmarks conftest
    def print_table(title, header, rows):
        print(f"\n=== {title} ===")
        for row in [header] + rows:
            print("  ".join(str(cell).ljust(18) for cell in row))

#: Image side; 64-pixel lanes keep the compilations fast and match the
#: golden lane tests in tests/test_lane_lowering.py.
IMAGE_SIZE = 8
LANE = IMAGE_SIZE**2
#: Acceptance bar: batched rotations per evaluation vs unbatched.
MAX_ROTATION_RATIO = 1.2
#: Acceptance bar: lane-variant key steps over the solo program's (the
#: shared wrap step).
MAX_EXTRA_KEY_STEPS = 1


def rotation_count(compilation) -> int:
    counts = compilation.program.op_counts()
    return counts.get(Op.ROTATE_LEFT, 0) + counts.get(Op.ROTATE_RIGHT, 0)


def session_key_bytes(compilation) -> int:
    """Modeled Galois key upload for one session of this compilation."""
    parameters = compilation.parameters
    return len(parameters.rotation_steps) * DEFAULT_COST_MODEL.galois_key_bytes(
        parameters.poly_modulus_degree,
        max(len(parameters.coeff_modulus_bits), 1),
    )


def measure(build, vec_factor: int):
    program = build(IMAGE_SIZE, vec_size=vec_factor * LANE)
    unbatched = compile_program(program.graph)
    optimized = compile_program(
        program.graph, options=CompilerOptions(lane_width=LANE)
    )
    solo_rotations = rotation_count(unbatched)
    lane_rotations = rotation_count(optimized)
    return {
        "vec_size": vec_factor * LANE,
        "lane_width": LANE,
        "lane_capacity": vec_factor,
        "unbatched_rotations": solo_rotations,
        "batched_rotations": lane_rotations,
        "rotation_ratio": lane_rotations / max(solo_rotations, 1),
        "unbatched_key_steps": len(unbatched.rotation_steps),
        "optimized_key_steps": len(optimized.rotation_steps),
        "optimized_key_bytes": session_key_bytes(optimized),
    }


def run(benchmark=None) -> dict:
    kernels = {
        "sobel": measure(build_sobel_program, 8),
        "harris": measure(build_harris_program, 4),
    }

    print_table(
        f"Lane tax on {IMAGE_SIZE}x{IMAGE_SIZE} kernels (lane {LANE}, solo vs lane variant)",
        ["Kernel", "Solo ROTs", "Lane ROTs", "Ratio", "Keys solo", "Keys lane"],
        [
            [
                name,
                k["unbatched_rotations"],
                k["batched_rotations"],
                f"{k['rotation_ratio']:.3f}x",
                k["unbatched_key_steps"],
                k["optimized_key_steps"],
            ]
            for name, k in kernels.items()
        ],
    )

    for name, k in kernels.items():
        assert k["rotation_ratio"] <= MAX_ROTATION_RATIO, (
            f"{name}: batched evaluation costs {k['batched_rotations']} "
            f"rotations vs {k['unbatched_rotations']} unbatched "
            f"({k['rotation_ratio']:.3f}x > {MAX_ROTATION_RATIO}x)"
        )
        assert k["optimized_key_steps"] <= k["unbatched_key_steps"] + MAX_EXTRA_KEY_STEPS, (
            f"{name}: the lane variant needs {k['optimized_key_steps']} Galois "
            f"keys vs {k['unbatched_key_steps']} solo (more than the shared "
            f"wrap step over)"
        )

    payload = {
        "benchmark": "rotation_cost",
        "image_size": IMAGE_SIZE,
        "max_rotation_ratio": MAX_ROTATION_RATIO,
        "max_extra_key_steps": MAX_EXTRA_KEY_STEPS,
        **kernels,
    }
    print(json.dumps(payload))

    if benchmark is not None:
        program = build_sobel_program(IMAGE_SIZE, vec_size=8 * LANE)
        benchmark.pedantic(
            lambda: compile_program(
                program.graph, options=CompilerOptions(lane_width=LANE)
            ),
            rounds=3,
            iterations=1,
        )
    else:
        import os

        os.makedirs("bench-out", exist_ok=True)
        with open(
            "bench-out/rotation_cost.json", "w", encoding="utf-8"
        ) as handle:
            json.dump(payload, handle, indent=2)
    return payload


def test_rotation_cost(benchmark):
    run(benchmark)


if __name__ == "__main__":
    result = run(None)
    print(
        "rotation cost ok: "
        + ", ".join(
            f"{name} {result[name]['rotation_ratio']:.3f}x rotations, "
            f"{result[name]['unbatched_key_steps']} -> "
            f"{result[name]['optimized_key_steps']} keys"
            for name in ("sobel", "harris")
        )
        + f" (<= {MAX_ROTATION_RATIO}x, <= solo + {MAX_EXTRA_KEY_STEPS})"
    )
    sys.exit(0)
