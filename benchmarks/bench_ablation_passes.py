"""Ablation study (extension): contribution of each EVA compiler choice.

Not a table of the paper, but the design choices DESIGN.md calls out are
ablated here on the Sobel / Harris applications and LeNet-5-medium:

* rescale policy — maximal (2^60) waterline rescaling vs per-level rescaling;
* MOD_SWITCH placement — eager vs lazy;
* MATCH-SCALE and the whole-program DAG schedule vs per-kernel scheduling.

Reported per configuration: modulus-chain length r, log2 Q, log2 N, the
number of FHE-specific instructions inserted, and the modeled 56-thread
latency.
"""

from __future__ import annotations


from repro.apps import build_harris_program, build_sobel_program
from repro.core import CompilerOptions, simulate_schedule
from repro.core.types import Op

from conftest import print_table


def fhe_op_count(program) -> int:
    return sum(
        1
        for t in program.terms()
        if t.op in (Op.RESCALE, Op.MOD_SWITCH, Op.RELINEARIZE)
    )


def describe(compilation, discipline: str):
    summary = compilation.parameters.summary()
    latency = simulate_schedule(compilation, threads=56, discipline=discipline)
    return summary, fhe_op_count(compilation.program), latency.makespan_seconds


CONFIGURATIONS = [
    ("EVA (waterline 60 + eager, DAG)", CompilerOptions(policy="eva"), "dag"),
    ("per-level rescale + lazy (CHET-like)", CompilerOptions(policy="chet"), "kernel"),
    ("EVA with 30-bit rescales", CompilerOptions(policy="eva", max_rescale_bits=30), "dag"),
    ("EVA scheduled bulk-synchronously", CompilerOptions(policy="eva"), "kernel"),
]


def test_ablation_compiler_choices(benchmark, workspace):
    rows = []
    programs = {
        "Sobel 32x32": build_sobel_program(image_size=32),
        "Harris 32x32": build_harris_program(image_size=32),
    }
    for program_name, program in programs.items():
        for label, options, discipline in CONFIGURATIONS:
            compilation = program.compile(options=options)
            summary, fhe_ops, latency = describe(compilation, discipline)
            rows.append(
                [
                    program_name,
                    label,
                    summary["log_n"],
                    summary["log_q"],
                    summary["r"],
                    fhe_ops,
                    f"{latency:.3f}",
                ]
            )

    # LeNet-5-medium via the cached workspace (eva/chet policies only).
    for label, policy, discipline in (
        ("EVA (waterline 60 + eager, DAG)", "eva", "dag"),
        ("per-level rescale + lazy (CHET-like)", "chet", "kernel"),
    ):
        compilation = workspace.compiled("LeNet-5-medium", policy).compilation
        summary, fhe_ops, latency = describe(compilation, discipline)
        rows.append(
            ["LeNet-5-medium", label, summary["log_n"], summary["log_q"], summary["r"], fhe_ops, f"{latency:.3f}"]
        )

    print_table(
        "Ablation: effect of rescale policy, modswitch placement, and scheduling",
        ["Workload", "Configuration", "logN", "logQ", "r", "FHE ops", "56-thr latency (s)"],
        rows,
    )

    # The headline ablation facts: the full EVA policy has the shortest chain,
    # and DAG scheduling beats bulk-synchronous scheduling of the same program.
    sobel_rows = [r for r in rows if r[0] == "Sobel 32x32"]
    eva_row = sobel_rows[0]
    chet_row = sobel_rows[1]
    assert eva_row[4] <= chet_row[4]
    dag = next(r for r in rows if r[0] == "Sobel 32x32" and "DAG" in r[1])
    bulk = next(r for r in rows if r[0] == "Sobel 32x32" and "bulk" in r[1])
    assert float(dag[6]) <= float(bulk[6]) + 1e-9

    program = build_sobel_program(image_size=32)
    benchmark.pedantic(lambda: program.compile(), rounds=3, iterations=1)
