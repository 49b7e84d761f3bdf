"""The public client/server API of the EVA reproduction.

The paper's deployment model is asymmetric: the *client* generates keys and
encrypts its inputs, the *server* evaluates the compiled program on
ciphertexts only, and the client decrypts the results.  This namespace
exposes that workflow as three first-class artifacts plus a tracing frontend:

* :class:`CompiledProgram` — the compiler's result itself
  (:class:`~repro.core.compiler.CompilationResult` under its public name):
  ``compile`` / ``save`` / ``load``, carrying the content signature every
  cache keys by;
* :class:`ClientKit` — key owner; ``encrypt_inputs()`` / ``decrypt_outputs()``
  plus evaluation-key export for the server;
* :class:`~repro.serving.EvaServer` — the blind evaluator: it is given a
  client's evaluation context, never the secret key, and evaluates
  :class:`CipherBundle` objects; a context holding a secret key is refused;
* :func:`eva_program` — decorator tracing a plain Python function into an
  :class:`EvaProgramFamily` parameterized by ``vec_size``.

A minimal end-to-end flow::

    from repro.api import ClientKit, EvaServer, eva_program

    @eva_program(vec_size=1024, default_scale=30)
    def squares(x):
        return x ** 2 + x

    compiled = squares.compile()
    client = ClientKit(compiled)                      # client: keygen

    with EvaServer(backend=client.backend) as server:  # server: no keys
        server.register("squares", compiled)
        server.create_session("squares", client.client_id, client.evaluation_context())
        bundle = client.encrypt_inputs({"x": data})   # client: encrypt
        reply = server.request_encrypted("squares", bundle)  # blind evaluate
        outputs = client.decrypt_outputs(reply.outputs)       # client: decrypt

The classic one-process API (``EvaProgram`` + ``Executor.execute``) remains
available — re-exported here — as a compatibility layer.
"""

from __future__ import annotations

from typing import Any

from ..core.compiler import (
    CompilationResult,
    CompilerOptions,
    EvaCompiler,
    compile_program,
    program_signature,
)
from ..core.executor import (
    EvaluationEngine,
    ExecutionResult,
    ExecutionStats,
    Executor,
    ReferenceExecutor,
    execute_reference,
)
from ..core.ir import Program
from ..frontend.pyeva import (
    EvaProgram,
    Expr,
    constant,
    input_encrypted,
    input_plain,
    output,
)
from .bundles import (
    CipherBundle,
    EncryptedOutputs,
    bundle_from_wire,
    bundle_to_wire,
    outputs_from_wire,
    outputs_to_wire,
)
from .client import ClientKit
from .tracing import EvaProgramFamily, eva_program

#: The first of the three artifacts *is* the compiler's result: one value,
#: taken as it is by :class:`ClientKit`, the executors and the serving layer.
CompiledProgram = CompilationResult

#: Serving-layer names resolved lazily to avoid a circular import
#: (repro.serving itself consumes the bundle types defined here).
_SERVING_EXPORTS = ("EvaServer", "EvaTcpServer", "ServingClient")

__all__ = [
    # three artifacts
    "CompiledProgram",
    "ClientKit",
    # bundles + wire codecs
    "CipherBundle",
    "EncryptedOutputs",
    "bundle_to_wire",
    "bundle_from_wire",
    "outputs_to_wire",
    "outputs_from_wire",
    # tracing frontend
    "eva_program",
    "EvaProgramFamily",
    # compiler + frontend re-exports
    "CompilationResult",
    "CompilerOptions",
    "EvaCompiler",
    "compile_program",
    "program_signature",
    "EvaProgram",
    "Expr",
    "Program",
    "constant",
    "input_encrypted",
    "input_plain",
    "output",
    # execution re-exports
    "EvaluationEngine",
    "ExecutionResult",
    "ExecutionStats",
    "Executor",
    "ReferenceExecutor",
    "execute_reference",
    *_SERVING_EXPORTS,
]


def __getattr__(name: str) -> Any:
    if name in _SERVING_EXPORTS:
        from .. import serving

        return getattr(serving, name)
    raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
