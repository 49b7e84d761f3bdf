"""Reproduction of EVA: an Encrypted Vector Arithmetic language and compiler.

The public API lives in :mod:`repro.api`, organized around the paper's
asymmetric deployment model (client encrypts, server evaluates, client
decrypts)::

    from repro.api import ClientKit, CompiledProgram, EvaServer, eva_program

The package is organized as follows:

* :mod:`repro.api` — the public client/server API: ``CompiledProgram``,
  ``ClientKit``, cipher bundles, the ``@eva_program`` tracing decorator, and
  ``EvaServer``, the blind evaluator.
* :mod:`repro.core` — the EVA language (term-graph IR), the optimizing
  compiler (rescale / modswitch / relinearize insertion, scale matching,
  validation, parameter and rotation-key selection), executors, and a
  scheduling simulator.
* :mod:`repro.ckks` — a from-scratch RNS-CKKS implementation standing in for
  Microsoft SEAL.
* :mod:`repro.backend` — the HISA backend interface, the metadata-exact mock
  simulator, and the real CKKS backend.
* :mod:`repro.frontend` — PyEVA, the Python-embedded DSL.
* :mod:`repro.nn` — the CHET-style tensor compiler for DNN inference on
  encrypted images.
* :mod:`repro.apps` — the arithmetic, statistical-ML, and image-processing
  applications evaluated in the paper.
* :mod:`repro.serving` — the serving subsystem: program registry, per-client
  session cache, slot batching, async job engine, and a TCP front-end that
  accepts pre-encrypted input bundles (client-held keys).
"""

from __future__ import annotations

from typing import Any

from .frontend import EvaProgram, Expr

__version__ = "1.1.0"

__all__ = ["EvaProgram", "Expr", "api", "__version__"]


def __getattr__(name: str) -> Any:
    if name == "api":
        import importlib

        return importlib.import_module("repro.api")
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
