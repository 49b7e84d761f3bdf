"""Measured profiling of the real CKKS backend.

This module is the measurement side of the "profile, then optimize" loop:
it runs representative compiled programs (Sobel/Harris with lane batching, a
rotation-tree SUM, a relinearization-heavy polynomial) end to end on the real
RNS-CKKS backend under :mod:`cProfile` and :mod:`tracemalloc`, and buckets
the measured time into the cost centers the ROADMAP names — key-switch
decomposition, NTT butterflies, RNS base conversion, encode/decode, and
Python dispatch — so kernel work targets what is actually hot instead of
what looks hot.  Beside the sampled seconds it reports, per homomorphic
operation, the backend's own count, seconds and **exact NTT rows**
(``drain_op_times()`` / ``drain_ntt_rows()``: the taxonomy and the numbers of
the live ``ckks.op.*`` / ``ckks.ntt.rows`` series), so a change to the kernels
can be replayed as rows — which repeat on any host — with one command.
``tools/profile_ckks.py`` and ``repro.cli profile`` are thin
wrappers around :func:`run_profile`; the output is machine-readable JSON and
is uploaded as a CI artifact by the weekly full-bench run.
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
import sys
import time
import tracemalloc
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Cost-center buckets, matched in order against (filename, function) pairs.
#: The first rule whose path fragment (and, when given, function set) matches
#: claims the sample; later rules see only what is left.
CATEGORY_RULES: List[Tuple[str, str, Optional[frozenset]]] = [
    ("ntt_butterflies", "ckks/ntt.py", None),
    (
        "key_switch",
        "ckks/evaluator.py",
        frozenset(
            {
                "_key_switch_totals",
                "_hoisted",
                "_lift",
                "_digit_ntts",
                "_digit_ntts_of_evaluations",
                "_key_evaluation_form",
                "relinearize",
                "rotate",
            }
        ),
    ),
    ("base_conversion", "ckks/rns.py", None),
    ("encode_decode", "ckks/encoder.py", None),
    ("encode_decode", "ckks/encryptor.py", None),
    ("encode_decode", "ckks/decryptor.py", None),
    ("encode_decode", "ckks/sampling.py", None),
    ("scheme_other", "repro/ckks/", None),
    ("dispatch", "repro/", None),
]

#: Everything that is not repro code (numpy internals, stdlib) lands here.
FALLBACK_CATEGORY = "runtime_other"


def classify_function(filename: str, function: str) -> str:
    """Bucket one profiled function into a cost center."""
    normalized = filename.replace("\\", "/")
    for category, fragment, names in CATEGORY_RULES:
        if fragment in normalized and (names is None or function in names):
            return category
    return FALLBACK_CATEGORY


# -- representative programs -----------------------------------------------------------


def _build_sum_program(vec_size: int, scale: float):
    from .frontend.pyeva import EvaProgram, input_encrypted, output

    program = EvaProgram("profile-sum", vec_size=vec_size, default_scale=scale)
    with program:
        x = input_encrypted("x", scale)
        acc = x
        shift = 1
        while shift < vec_size:
            acc = acc + (acc << shift)
            shift *= 2
        output("total", acc, scale)
    return program


def _build_poly_relin_program(vec_size: int, scale: float):
    from .frontend.pyeva import EvaProgram, input_encrypted, output

    program = EvaProgram("profile-poly", vec_size=vec_size, default_scale=scale)
    with program:
        x = input_encrypted("x", scale)
        y = x * x
        y = y * x
        z = y * y
        output("value", z + x, scale)
    return program


def _profile_spec(name: str):
    """(program builder, compile options, input maker) for one profile target."""
    from .core.compiler import CompilerOptions

    scale = 25.0
    if name == "sobel_lanes":
        from .apps.sobel import build_sobel_program

        image_size = 16
        vec_size = 1024
        program = build_sobel_program(image_size=image_size, scale=20.0, vec_size=vec_size)
        options = CompilerOptions(max_rescale_bits=20, lane_width=image_size * image_size)
        rng = np.random.default_rng(11)
        inputs = {"image": rng.uniform(0.0, 1.0, vec_size)}
    elif name == "harris_lanes":
        from .apps.harris import build_harris_program

        image_size = 8
        vec_size = 256
        program = build_harris_program(image_size=image_size, scale=20.0, vec_size=vec_size)
        options = CompilerOptions(max_rescale_bits=20, lane_width=image_size * image_size)
        rng = np.random.default_rng(13)
        inputs = {"image": rng.uniform(0.0, 1.0, vec_size)}
    elif name == "sum":
        vec_size = 1024
        program = _build_sum_program(vec_size, scale)
        options = CompilerOptions(max_rescale_bits=25)
        inputs = {"x": np.linspace(-1.0, 1.0, vec_size)}
    elif name == "poly_relin":
        vec_size = 1024
        program = _build_poly_relin_program(vec_size, scale)
        options = CompilerOptions(max_rescale_bits=25)
        inputs = {"x": np.linspace(-0.9, 0.9, vec_size)}
    else:
        raise ValueError(f"unknown profile program {name!r}")
    return program, options, inputs


#: Default profile targets, in the order they are reported.
PROFILE_PROGRAMS: Tuple[str, ...] = ("sobel_lanes", "harris_lanes", "sum", "poly_relin")


# -- profiling ------------------------------------------------------------------------


def _collect_stats(profiler: cProfile.Profile, top: int) -> Tuple[Dict[str, float], List[dict]]:
    stats = pstats.Stats(profiler, stream=io.StringIO())
    categories: Dict[str, float] = {}
    rows: List[dict] = []
    for (filename, lineno, function), (
        _cc,
        ncalls,
        tottime,
        _cumtime,
        _callers,
    ) in stats.stats.items():  # type: ignore[attr-defined]
        category = classify_function(filename, function)
        categories[category] = categories.get(category, 0.0) + tottime
        rows.append(
            {
                "function": f"{filename.rsplit('/', 1)[-1]}:{lineno}:{function}",
                "category": category,
                "tottime_seconds": round(tottime, 6),
                "calls": int(ncalls),
            }
        )
    rows.sort(key=lambda row: row["tottime_seconds"], reverse=True)
    return categories, rows[:top]


def profile_program(name: str, repeats: int = 3, top: int = 15) -> dict:
    """Profile one representative program on the real backend.

    The profiled section covers the server-side blind evaluation (the hot
    path this repo serves at scale) plus one client-side decrypt, so the
    encode/decode bucket is measured rather than estimated.
    """
    from .api import ClientKit, CompiledProgram, ServerRuntime
    from .backend import CkksBackend

    program, options, inputs = _profile_spec(name)
    compiled = CompiledProgram.compile(program, options=options)
    backend = CkksBackend(seed=21)
    client = ClientKit(compiled, backend=backend, client_id="profiler")
    server = ServerRuntime(compiled, backend=backend)
    contexts = (server.attach_client("profiler", client.evaluation_context()), client.context)
    bundle = client.encrypt_inputs(inputs)

    # Warm every cache the serving path would have warm (twiddles, key NTT
    # forms, encoder tables) so the profile reflects steady state.
    warm = server.evaluate(bundle)
    client.decrypt_outputs(warm)
    for context in contexts:
        context.drain_op_times(), context.drain_ntt_rows()

    tracemalloc.start()
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    encrypted = None
    for _ in range(repeats):
        encrypted = server.evaluate(bundle)
    client.decrypt_outputs(encrypted)
    profiler.disable()
    wall = time.perf_counter() - started
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    categories, top_rows = _collect_stats(profiler, top)
    profiled_total = sum(categories.values()) or 1.0
    # The server's evaluations and the client's one decrypt, by the backend's
    # own per-op accounting (seconds here include the profiler's overhead).
    ops: Dict[str, dict] = {}
    for context in contexts:
        rows = context.drain_ntt_rows()
        for op, (count, seconds) in context.drain_op_times().items():
            entry = ops.setdefault(op, {"count": 0, "seconds": 0.0, "ntt_rows": 0})
            entry["count"] += count
            entry["seconds"] = round(entry["seconds"] + seconds, 6)
            entry["ntt_rows"] += rows.get(op, 0)
    return {
        "wall_seconds": round(wall, 6),
        "evaluations": repeats,
        "poly_modulus_degree": compiled.parameters.poly_modulus_degree,
        "categories": {
            category: {
                "seconds": round(seconds, 6),
                "fraction": round(seconds / profiled_total, 4),
            }
            for category, seconds in sorted(
                categories.items(), key=lambda item: item[1], reverse=True
            )
        },
        "ops": dict(sorted(ops.items(), key=lambda item: item[1]["seconds"], reverse=True)),
        "ntt_rows": sum(entry["ntt_rows"] for entry in ops.values()),
        "top_functions": top_rows,
        "tracemalloc_peak_kb": round(peak / 1024.0, 1),
    }


def run_profile(
    programs: Optional[Sequence[str]] = None,
    repeats: int = 3,
    top: int = 15,
    log: Callable[[str], None] = lambda line: None,
) -> dict:
    """Profile every requested program and return the combined report."""
    names = list(programs) if programs else list(PROFILE_PROGRAMS)
    report = {
        "benchmark": "ckks_profile",
        "backend": "ckks",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "repeats": repeats,
        "programs": {},
    }
    for name in names:
        log(f"profiling {name} ...")
        result = profile_program(name, repeats=repeats, top=top)
        report["programs"][name] = result
        hottest = next(iter(result["categories"]), "n/a")
        log(
            f"  {name}: {result['wall_seconds']:.2f}s wall, {result['ntt_rows']} NTT rows, "
            f"hottest bucket {hottest}, peak {result['tracemalloc_peak_kb']:.0f} KiB"
        )
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point shared by ``tools/profile_ckks.py`` and ``repro.cli profile``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="profile_ckks", description="Profile the real CKKS backend hot paths."
    )
    parser.add_argument(
        "--programs",
        nargs="+",
        choices=list(PROFILE_PROGRAMS),
        help="subset of profile programs (default: all)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="evaluations per program")
    parser.add_argument("--top", type=int, default=15, help="top functions to report")
    parser.add_argument("--out", help="write the JSON report to this path (default: stdout)")
    args = parser.parse_args(argv)

    report = run_profile(
        programs=args.programs,
        repeats=args.repeats,
        top=args.top,
        log=lambda line: print(line, file=sys.stderr),
    )
    payload = json.dumps(report, indent=2, sort_keys=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(payload)
    return 0


if __name__ == "__main__":  # pragma: no cover - module CLI
    raise SystemExit(main())
