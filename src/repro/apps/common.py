"""Shared helpers for the example applications of Section 8.3."""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from ..backend.hisa import HomomorphicBackend
from ..core.compiler import CompilerOptions
from ..core.executor import ExecutionResult, ExecutionStats
from ..frontend.pyeva import EvaProgram, Expr, constant


def sqrt_poly(x: Expr, scale: float) -> Expr:
    """Third-degree polynomial approximation of the square root.

    This is the approximation used in the paper's Sobel example (Figure 6):
    ``sqrt(x) ~ 2.214 x - 1.098 x^2 + 0.173 x^3`` on the interval the image
    gradients live in.
    """
    return (
        x * constant(2.214, scale)
        + (x ** 2) * constant(-1.098, scale)
        + (x ** 3) * constant(0.173, scale)
    )


def sqrt_poly_reference(x: np.ndarray) -> np.ndarray:
    """NumPy reference of :func:`sqrt_poly`."""
    return 2.214 * x - 1.098 * x**2 + 0.173 * x**3


def run_application(
    program: EvaProgram,
    inputs: Dict[str, np.ndarray],
    backend: Optional[HomomorphicBackend] = None,
    options: Optional[CompilerOptions] = None,
    threads: int = 1,
) -> ExecutionResult:
    """Compile a PyEVA application and run it through the client/server split.

    The flow is the three-artifact API of :mod:`repro.api`: compile to a
    :class:`~repro.api.CompiledProgram`, encrypt with a
    :class:`~repro.api.ClientKit`, evaluate blindly on an in-process
    :class:`~repro.serving.EvaServer` (which is given the client's evaluation
    context, never the secret key), and decrypt client-side.  The result is
    packaged as an :class:`~repro.core.executor.ExecutionResult` for the
    benchmark harness.
    """
    from ..api import ClientKit, CompiledProgram
    from ..serving import EvaServer

    start_all = time.perf_counter()
    compiled = CompiledProgram.compile(program, options=options)

    t0 = time.perf_counter()
    client = ClientKit(compiled, backend=backend)
    context_seconds = time.perf_counter() - t0
    server_context = client.evaluation_context()

    t0 = time.perf_counter()
    bundle = client.encrypt_inputs(inputs)
    encrypt_seconds = time.perf_counter() - t0

    with EvaServer(backend=client.backend, executor_threads=threads) as server:
        server.register(compiled.name, compiled)
        server.create_session(compiled.name, client.client_id, server_context)
        reply = server.request_encrypted(compiled.name, bundle)

        t0 = time.perf_counter()
        outputs = client.decrypt_outputs(reply.outputs)
        decrypt_seconds = time.perf_counter() - t0
        reply.release()

    stats = ExecutionStats(
        wall_seconds=time.perf_counter() - start_all,
        context_seconds=context_seconds,
        encrypt_seconds=encrypt_seconds,
        evaluate_seconds=reply.execute_seconds,
        decrypt_seconds=decrypt_seconds,
        op_count=getattr(server_context, "op_count", 0),
        peak_live_ciphertexts=getattr(server_context, "peak_live_ciphertexts", 0),
        threads=threads,
    )
    return ExecutionResult(outputs=outputs, stats=stats)
