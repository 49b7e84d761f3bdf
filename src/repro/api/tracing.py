"""``@eva_program``: trace plain Python functions into EVA program families.

The decorator turns an ordinary function over :class:`~repro.frontend.Expr`
values into an :class:`EvaProgramFamily` — a family of PyEVA programs
parameterized by ``vec_size`` (and ``default_scale``).  Calling the family
instantiates (traces) one member; tracing is cached per parameterization, and
compilation is cached per :func:`~repro.core.compiler.program_signature`, so
repeated instantiation of the same member costs a dictionary lookup::

    @eva_program(vec_size=4096, default_scale=30)
    def squares(x):
        return x ** 2 + x

    program = squares(vec_size=1024)          # traced EvaProgram
    compiled = squares.compile(vec_size=1024) # cached CompiledProgram

Every function parameter becomes an encrypted input named after it; list the
names that should stay unencrypted in ``plain=...``.  The function returns
its outputs as a single :class:`Expr` (named ``"out"``), a tuple (named
``"out0"``, ``"out1"``, ...), or a dict mapping output names to expressions.
The classic ``with program:`` block remains available as sugar for programs
that are easier to write imperatively.
"""

from __future__ import annotations

import functools
import inspect
import threading
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..core.compiler import CompilationResult, CompilerOptions, program_signature
from ..errors import CompilationError
from ..frontend.pyeva import EvaProgram, Expr


class EvaProgramFamily:
    """A traced family of EVA programs sharing one Python definition."""

    def __init__(
        self,
        func: Callable[..., Any],
        vec_size: int = 4096,
        default_scale: float = 30.0,
        name: Optional[str] = None,
        plain: Sequence[str] = (),
    ) -> None:
        self.func = func
        self.name = name or func.__name__
        self.default_vec_size = int(vec_size)
        self.default_scale = float(default_scale)
        self.plain = tuple(plain)
        parameters = inspect.signature(func).parameters
        for param in parameters.values():
            if param.kind in (
                inspect.Parameter.VAR_POSITIONAL,
                inspect.Parameter.VAR_KEYWORD,
            ):
                raise CompilationError(
                    f"@eva_program function {self.name!r} cannot use *args/**kwargs; "
                    "every parameter must name one program input"
                )
        self.input_names = tuple(parameters)
        unknown = set(self.plain) - set(self.input_names)
        if unknown:
            raise CompilationError(
                f"plain={sorted(unknown)} are not parameters of {self.name!r}"
            )
        self._programs: Dict[Tuple[int, float], EvaProgram] = {}
        self._compiled: Dict[str, CompilationResult] = {}
        self._lock = threading.Lock()
        functools.update_wrapper(self, func, updated=())

    # -- tracing -----------------------------------------------------------------
    def instantiate(
        self,
        vec_size: Optional[int] = None,
        default_scale: Optional[float] = None,
    ) -> EvaProgram:
        """Trace (or fetch the cached trace of) one member of the family."""
        vec = int(vec_size) if vec_size is not None else self.default_vec_size
        scale = (
            float(default_scale) if default_scale is not None else self.default_scale
        )
        key = (vec, scale)
        with self._lock:
            cached = self._programs.get(key)
        if cached is not None:
            return cached
        program = self._trace(vec, scale)
        with self._lock:
            return self._programs.setdefault(key, program)

    __call__ = instantiate

    def _trace(self, vec_size: int, default_scale: float) -> EvaProgram:
        program = EvaProgram(self.name, vec_size=vec_size, default_scale=default_scale)
        with program:
            arguments = {
                name: (
                    program.input_plain(name)
                    if name in self.plain
                    else program.input_encrypted(name)
                )
                for name in self.input_names
            }
            result = self.func(**arguments)
            for out_name, expr in self._named_outputs(result).items():
                program.output(out_name, expr)
        return program

    def _named_outputs(self, result: Any) -> Dict[str, Expr]:
        if isinstance(result, Expr):
            return {"out": result}
        if isinstance(result, dict):
            outputs = result
        elif isinstance(result, (tuple, list)):
            outputs = {f"out{i}": expr for i, expr in enumerate(result)}
        else:
            raise CompilationError(
                f"@eva_program function {self.name!r} must return an Expr, a "
                f"tuple/list of Exprs, or a dict of name -> Expr; got "
                f"{type(result).__name__}"
            )
        if not outputs:
            raise CompilationError(
                f"@eva_program function {self.name!r} returned no outputs"
            )
        for out_name, expr in outputs.items():
            if not isinstance(expr, Expr):
                raise CompilationError(
                    f"output {out_name!r} of {self.name!r} is not an Expr "
                    f"(got {type(expr).__name__})"
                )
        return outputs

    # -- compilation -------------------------------------------------------------
    def compile(
        self,
        vec_size: Optional[int] = None,
        default_scale: Optional[float] = None,
        options: Optional[CompilerOptions] = None,
        input_scales: Optional[Dict[str, float]] = None,
        output_scales: Optional[Dict[str, float]] = None,
    ) -> CompilationResult:
        """Compile one member, cached per program signature.

        Distinct parameterizations (and distinct compiler options) compile
        separately; identical ones — even requested through different family
        objects tracing the same graph — share the signature-keyed cache.
        """
        program = self.instantiate(vec_size, default_scale)
        signature = program_signature(
            program.graph, options, input_scales, output_scales
        )
        with self._lock:
            cached = self._compiled.get(signature)
        if cached is not None:
            return cached
        compiled = CompilationResult.compile(
            program, options=options, input_scales=input_scales,
            output_scales=output_scales,
        )
        with self._lock:
            return self._compiled.setdefault(signature, compiled)

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss counters of the trace and compile caches."""
        with self._lock:
            return {
                "traced": len(self._programs),
                "compiled": len(self._compiled),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EvaProgramFamily {self.name!r} inputs={list(self.input_names)} "
            f"vec_size={self.default_vec_size}>"
        )


def eva_program(
    func: Optional[Callable[..., Any]] = None,
    *,
    vec_size: int = 4096,
    default_scale: float = 30.0,
    name: Optional[str] = None,
    plain: Sequence[str] = (),
) -> Any:
    """Decorator: turn a Python function into an :class:`EvaProgramFamily`.

    Use bare (``@eva_program``) for the defaults or parameterized
    (``@eva_program(vec_size=1024, default_scale=25)``).  ``plain`` lists the
    parameters that are unencrypted vector inputs.
    """

    def wrap(f: Callable[..., Any]) -> EvaProgramFamily:
        """Wrap the traced function into an EvaProgramFamily."""
        return EvaProgramFamily(
            f,
            vec_size=vec_size,
            default_scale=default_scale,
            name=name,
            plain=plain,
        )

    if func is not None:
        if not callable(func):
            raise CompilationError(
                "@eva_program takes keyword arguments only, e.g. "
                "@eva_program(vec_size=1024)"
            )
        return wrap(func)
    return wrap
