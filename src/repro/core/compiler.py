"""The EVA compiler driver (Algorithm 1 of the paper).

Compilation takes an input program (frontend opcodes only), the scales of its
inputs, and the desired scales of its outputs, and produces:

* an executable program with RESCALE / MOD_SWITCH / RELINEARIZE inserted and
  all scales matched (the ``Transform`` step),
* a proof that the program satisfies Constraints 1-4 (the ``Validate`` step —
  a :class:`~repro.errors.ValidationError` is raised otherwise),
* the vector of coefficient-modulus bit sizes and the polynomial modulus
  degree (the ``DetermineParameters`` step), and
* the set of rotation steps requiring Galois keys (``DetermineRotationSteps``).

Two policy profiles are provided.  ``"eva"`` is the paper's policy
(WATERLINE-RESCALE with the maximum rescale value, EAGER-MODSWITCH,
MATCH-SCALE); ``"chet"`` is the baseline policy modelling CHET's expert
kernels (ALWAYS-RESCALE after every multiplication, LAZY-MODSWITCH), used by
the benchmark harness to reproduce the CHET-vs-EVA comparisons of Section 8.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..errors import CompilationError, EvaError, SerializationError
from .analysis import select_parameters, select_rotation_steps, validate
from .analysis.parameters import EncryptionParameters
from .analysis.validation import check_evaluable
from .ir import Program
from .serialization.json_format import dict_to_program, program_to_dict
from .serialization.records import read_record, write_record
from .rewrite import (
    BsgsRotationPass,
    ChetKernelAlignmentPass,
    CommonSubexpressionEliminationPass,
    ConstantFoldingPass,
    DeadCodeEliminationPass,
    EagerModSwitchPass,
    ExpandSumPass,
    LaneLoweringPass,
    LazyModSwitchPass,
    MatchScalePass,
    PassManager,
    RelinearizePass,
    RemoveCopyPass,
    RotationHoistingPass,
    WaterlineRescalePass,
)
from .rewrite.framework import PassContext, PassReport, waterline_of
from .types import DEFAULT_MAX_RESCALE_BITS, DEFAULT_SECURITY_LEVEL, Op


#: Options of earlier builds, at the one value this build compiles with: SUM
#: is always expanded, COPY always removed, the cleanup passes always run, and
#: the waterline and rescale value are always derived from the program.
#: :meth:`CompilerOptions.to_dict` still writes them, so signatures and
#: records of earlier builds stay the same.
_RETIRED_OPTIONS = {
    "lower_sum": True, "remove_copies": True, "cleanup": True,
    "rescale_bits": None, "waterline_bits": None,
}  # fmt: skip
#: Same, for options earlier builds left out of ``to_dict`` at this value:
#: the lane wrap branch is always composed, rotation hoisting always runs and
#: the BSGS plan is always the cost model's.
_RETIRED_UNWRITTEN = {"hoist_rotations": True, "bsgs_rotations": "auto"}


@dataclass
class CompilerOptions:
    """Knobs of the EVA compiler.

    Attributes
    ----------
    policy:
        ``"eva"`` (paper policy) or ``"chet"`` (baseline policy).
    max_rescale_bits:
        ``log2 s_f`` — both the largest rescale value and the largest prime
        bit size (60 in SEAL); WATERLINE-RESCALE rescales by it under the
        ``eva`` policy.
    security_level:
        Security level in bits for parameter selection (128 by default).
    lane_width:
        When set, run :class:`~repro.core.rewrite.LaneLoweringPass` at this
        power-of-two lane width: every rotation (and expanded SUM) is
        rewritten into its lane-local masked form, making the compiled
        program provably slot-batchable at ``vec_size // lane_width``
        requests per ciphertext.  Must divide the program's vector size.
    """

    policy: str = "eva"
    max_rescale_bits: float = DEFAULT_MAX_RESCALE_BITS
    security_level: int = DEFAULT_SECURITY_LEVEL
    lane_width: Optional[int] = None

    def __post_init__(self) -> None:
        if self.policy not in ("eva", "chet"):
            raise CompilationError(f"unknown compiler policy {self.policy!r}")
        if self.lane_width is not None:
            from .types import is_power_of_two

            width = int(self.lane_width)
            if width < 1 or not is_power_of_two(width):
                raise CompilationError(
                    f"lane width must be a positive power of two, got {self.lane_width!r}"
                )
            self.lane_width = width

    def to_dict(self) -> Dict[str, Any]:
        """All option fields as a JSON-able dict (signature and artifact use)."""
        data = asdict(self)
        # Back-compat: an unset lane width serializes to the pre-lane layout,
        # so signatures of (and artifacts for) programs compiled without lane
        # lowering are unchanged by the option's existence.
        if data.get("lane_width") is None:
            data.pop("lane_width", None)
        return {**data, **_RETIRED_OPTIONS}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CompilerOptions":
        """Inverse of :meth:`to_dict`; unknown keys are rejected, missing ones default."""
        data = dict(data)
        for name, value in {**_RETIRED_OPTIONS, **_RETIRED_UNWRITTEN}.items():
            given = data.pop(name, value)
            if type(given) is not type(value) or given != value:
                raise CompilationError(
                    f"compiler option {name!r} is retired: this build always uses {value!r}"
                )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise CompilationError(f"unknown compiler options: {sorted(unknown)}")
        return cls(**data)


#: Format marker and version of a compiled program on disk — the one record
#: :meth:`CompilationResult.save` writes and the serving layer's
#: ``--artifact-dir`` cache publishes.  Version 2 stores the selected
#: parameters and a digest of the body; a version-1 file of an earlier build
#: (parameters re-derived at load, no digest) is refused, and the records an
#: earlier build's cache wrote under its own format marker read as a miss.
RECORD_FORMAT = "eva-compiled-program"
RECORD_VERSION = 2


def _sha256_of(payload: Dict[str, Any]) -> str:
    """SHA-256 of the canonical (sorted keys, no whitespace) JSON of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def frontend_graph(program: Any) -> Program:
    """The core graph of a PyEVA ``EvaProgram`` (its ``graph``) or of a
    :class:`~repro.core.ir.Program` (itself) — what every entry point that
    takes "a program" compiles, registers or hashes."""
    graph = getattr(program, "graph", program)
    if not isinstance(graph, Program):
        raise CompilationError(f"{type(program).__name__} is not an EVA program")
    return graph


def program_signature(
    program: Program,
    options: Optional[CompilerOptions] = None,
    input_scales: Optional[Dict[str, float]] = None,
    output_scales: Optional[Dict[str, float]] = None,
) -> str:
    """Stable content hash of a (program, compilation policy) pair.

    Two programs with identical graphs, compiler options, and scale overrides
    produce the same signature even across processes, so the signature can key
    a compilation cache (see :class:`repro.serving.ProgramRegistry`).  The
    program name is deliberately excluded: renaming a program does not change
    what the compiler produces.
    """
    payload = program_to_dict(program)
    payload.pop("name", None)
    options = options or CompilerOptions()
    payload["options"] = options.to_dict()
    payload["input_scales"] = {
        k: float(v) for k, v in sorted((input_scales or {}).items())
    }
    payload["output_scales"] = {
        k: float(v) for k, v in sorted((output_scales or {}).items())
    }
    return _sha256_of(payload)


@dataclass
class CompilationResult:
    """A compiled program: the output of Algorithm 1, as one value.

    The executable graph, the selected encryption parameters and the rotation
    steps needing Galois keys, plus the content ``signature`` client and
    server agree on without coordination.  It is what
    :meth:`compile` / :class:`EvaCompiler` return, what
    :class:`~repro.api.ClientKit`, the executors and
    :meth:`EvaServer.register <repro.serving.EvaServer.register>` take, what
    the serving registry caches, and — through
    :meth:`to_record` — the one thing written to disk
    (``repro.api.CompiledProgram`` is this class).
    """

    program: Program
    parameters: EncryptionParameters
    rotation_steps: List[int]
    options: CompilerOptions
    input_scales: Dict[str, float]
    output_scales: Dict[str, float]
    pass_reports: List[PassReport] = field(default_factory=list)
    compile_seconds: float = 0.0
    #: Content hash of the *source* (pre-transform) program plus the options
    #: and scale overrides it was compiled with — the same value
    #: :func:`program_signature` yields for those arguments, so every party
    #: that compiled the same source agrees on it.  A result assembled by hand
    #: (e.g. around an already-compiled graph) hashes what it has: the source
    #: if given, else the compiled graph — stable, but matching only peers
    #: that derived it the same way.
    signature: str = ""
    #: The frontend graph :meth:`EvaCompiler.compile` was handed (what
    #: :meth:`execute_reference` runs); ``None`` for hand-assembled results
    #: and for records saved without it.
    source: Optional[Program] = None

    def __post_init__(self) -> None:
        check_evaluable(self.program)
        if not self.signature:
            graph = self.source if self.source is not None else self.program
            self.signature = program_signature(graph, self.options)

    @classmethod
    def compile(
        cls,
        program: Any,
        options: Optional[CompilerOptions] = None,
        input_scales: Optional[Dict[str, float]] = None,
        output_scales: Optional[Dict[str, float]] = None,
    ) -> "CompilationResult":
        """Compile a PyEVA ``EvaProgram`` or a core :class:`Program`."""
        return EvaCompiler(options).compile(
            frontend_graph(program), input_scales, output_scales
        )

    @property
    def name(self) -> str:
        """The source program's name."""
        return self.program.name

    @property
    def vec_size(self) -> int:
        """The ciphertext slot count."""
        return self.program.vec_size

    @property
    def poly_modulus_degree(self) -> int:
        return self.parameters.poly_modulus_degree

    @property
    def coeff_modulus_bits(self) -> List[int]:
        return self.parameters.coeff_modulus_bits

    @property
    def relinearizes(self) -> bool:
        """Whether the compiled graph relinearizes (so its keys need a
        relinearization key); derived, never serialized."""
        return any(term.op is Op.RELINEARIZE for term in self.program.terms())

    # -- batchability metadata ---------------------------------------------------
    @property
    def lane_width(self) -> Optional[int]:
        """The compiler-enforced lane width, or None when not lane-lowered.

        A non-None value is a *guarantee*: every instruction of the compiled
        program stays inside lanes of this width, so the serving layer may
        pack one independent request per lane without inspecting opcodes.
        """
        return self.options.lane_width

    @property
    def lane_capacity(self) -> int:
        """Requests one ciphertext carries under the compiled lane width (>= 1)."""
        width = self.options.lane_width
        if not width or width >= self.program.vec_size:
            return 1
        return self.program.vec_size // width

    def summary(self) -> Dict[str, object]:
        """Compact description used in logs and benchmark tables."""
        return {
            "policy": self.options.policy,
            "terms": len(self.program),
            "log_n": self.parameters.summary()["log_n"],
            "log_q": self.parameters.summary()["log_q"],
            "r": self.parameters.summary()["r"],
            "rotations": len(self.rotation_steps),
            "lane_width": self.lane_width,
            "compile_seconds": self.compile_seconds,
            "signature": self.signature[:16],
        }

    def execute_reference(self, inputs: Dict[str, Any]) -> Dict[str, np.ndarray]:
        """Run the plaintext reference semantics (identity scheme)."""
        from .executor import execute_reference

        return execute_reference(
            self.source if self.source is not None else self.program, inputs
        )

    # -- persistence -------------------------------------------------------------
    def to_record(self, include_source: bool = True) -> Dict[str, Any]:
        """The JSON-able record of this value, sealed with a digest of its body.

        Parameters and rotation steps are *stored*, so a reader skips parameter
        selection as well as the rewrite passes.  ``include_source=False``
        leaves the frontend graph out (the serving cache does: a network's
        weights are constants of the graph, and a server has the source).
        """
        parameters = self.parameters
        record: Dict[str, Any] = {
            "format": RECORD_FORMAT,
            "version": RECORD_VERSION,
            "signature": self.signature,
            "options": self.options.to_dict(),
            "input_scales": {k: float(v) for k, v in self.input_scales.items()},
            "output_scales": {k: float(v) for k, v in self.output_scales.items()},
            "program": program_to_dict(self.program),
            "parameters": {
                "poly_modulus_degree": int(parameters.poly_modulus_degree),
                "coeff_modulus_bits": [int(b) for b in parameters.coeff_modulus_bits],
                "security_level": int(parameters.security_level),
                "rotation_steps": [int(s) for s in parameters.rotation_steps],
            },
            "rotation_steps": [int(s) for s in self.rotation_steps],
            "compile_seconds": float(self.compile_seconds),
        }
        if include_source and self.source is not None:
            record["source"] = program_to_dict(self.source)
        record["digest"] = _sha256_of(record)
        return record

    @classmethod
    def from_record(cls, record: Any) -> "CompilationResult":
        """Rebuild the value :meth:`to_record` described — the one reader.

        Anything that is not an intact record of this build's version raises
        :class:`~repro.errors.SerializationError` before a program is built
        from it: the digest covers every field but itself, so a record edited
        or damaged on disk is refused rather than evaluated.
        """
        if not isinstance(record, dict) or record.get("format") != RECORD_FORMAT:
            raise SerializationError(
                "not a compiled program record (save one with "
                "CompiledProgram.save(); raw programs load with "
                "repro.core.serialization.load)"
            )
        if record.get("version") != RECORD_VERSION:
            raise SerializationError(
                f"compiled program record has version {record.get('version')!r}, "
                f"this build reads version {RECORD_VERSION}: compile the program "
                "and save it again"
            )
        body = {key: value for key, value in record.items() if key != "digest"}
        if record.get("digest") != _sha256_of(body):
            raise SerializationError(
                "compiled program record is damaged: its digest does not match "
                "its contents"
            )
        try:
            parameters = body["parameters"]
            source = body.get("source")
            return cls(
                program=dict_to_program(body["program"]),
                parameters=EncryptionParameters(
                    poly_modulus_degree=int(parameters["poly_modulus_degree"]),
                    coeff_modulus_bits=[int(b) for b in parameters["coeff_modulus_bits"]],
                    security_level=int(parameters["security_level"]),
                    rotation_steps=[int(s) for s in parameters["rotation_steps"]],
                ),
                rotation_steps=[int(s) for s in body["rotation_steps"]],
                options=CompilerOptions.from_dict(body["options"]),
                input_scales={k: float(v) for k, v in body["input_scales"].items()},
                output_scales={k: float(v) for k, v in body["output_scales"].items()},
                compile_seconds=float(body["compile_seconds"]),
                signature=str(body["signature"]),
                source=dict_to_program(source) if source is not None else None,
            )
        except (KeyError, TypeError, ValueError, AttributeError, EvaError) as exc:
            raise SerializationError(
                f"malformed compiled program record: {type(exc).__name__}: {exc}"
            ) from exc

    def save(self, path: Union[str, Path]) -> None:
        """Write the record (source included) to ``path``, atomically."""
        write_record(path, self.to_record())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CompilationResult":
        """Load a program saved with :meth:`save`."""
        record = read_record(path)
        if record is None:
            raise SerializationError(
                f"no compiled program record at {path}: the file is missing, "
                "unreadable or not a JSON object"
            )
        return cls.from_record(record)


class EvaCompiler:
    """Compile EVA input programs into executable EVA programs."""

    def __init__(self, options: Optional[CompilerOptions] = None) -> None:
        self.options = options or CompilerOptions()

    def _build_passes(self) -> List:
        options = self.options
        passes: List = [RemoveCopyPass(), ExpandSumPass()]
        if options.lane_width is not None:
            # After SUM expansion so the reduction tree's rotations are lane-
            # lowered too, before cleanup so CSE deduplicates the masked pairs.
            passes.append(LaneLoweringPass(options.lane_width))
        # Hoisting after lane lowering (its shared wrap rotations are the main
        # target) and before cleanup, so CSE/DCE tidy the rebuilt trees and
        # collect the originals; BSGS after CSE, so the giant cache sees one
        # rotation term per (source, step), and before scale management —
        # chained rotations are scale- and level-transparent.
        passes += [
            RotationHoistingPass(),
            ConstantFoldingPass(),
            CommonSubexpressionEliminationPass(),
            DeadCodeEliminationPass(),
            BsgsRotationPass(),
        ]
        if options.policy == "eva":
            passes.append(WaterlineRescalePass())
            passes.append(EagerModSwitchPass())
        else:
            # The CHET baseline: per-multiply rescaling (waterline-sized
            # rescale value, set by the driver), conservative per-kernel level
            # alignment, and lazy modulus switching.
            passes.append(WaterlineRescalePass())
            passes.append(ChetKernelAlignmentPass())
            passes.append(LazyModSwitchPass())
        passes.append(MatchScalePass())
        passes.append(RelinearizePass())
        return passes

    def compile(
        self,
        program: Program,
        input_scales: Optional[Dict[str, float]] = None,
        output_scales: Optional[Dict[str, float]] = None,
    ) -> CompilationResult:
        """Run Algorithm 1 on ``program`` and return the compilation result.

        ``input_scales`` overrides the scales declared on input terms;
        ``output_scales`` provides the desired scales of the outputs (missing
        entries default to the program's recorded ``output_scales``, then 0).
        """
        start = time.perf_counter()
        program.check_structure(frontend_only=True)
        width = self.options.lane_width
        if width is not None and width > program.vec_size:
            raise CompilationError(f"lane width {width} exceeds the vector size {program.vec_size}")
        signature = program_signature(program, self.options, input_scales, output_scales)

        working = program.clone()
        if input_scales:
            for name, bits in input_scales.items():
                if name not in working.inputs:
                    raise CompilationError(f"unknown input {name!r} in input_scales")
                working.inputs[name].scale = float(bits)
        resolved_outputs = dict(working.output_scales)
        if output_scales:
            resolved_outputs.update({k: float(v) for k, v in output_scales.items()})
        for name in working.outputs:
            resolved_outputs.setdefault(name, 0.0)
        unknown = set(resolved_outputs) - set(working.outputs)
        if unknown:
            raise CompilationError(f"unknown outputs in output_scales: {sorted(unknown)}")
        working.output_scales = resolved_outputs

        waterline = waterline_of(working)
        # The CHET baseline rescales by (roughly) the input scale after every
        # multiplicative level, the way expert-written kernels do, instead of
        # EVA's maximal 2^60 rescales.  Using the waterline as the fixed
        # rescale value keeps every chain entry identical so the per-kernel
        # policy still produces conforming chains.
        chet = self.options.policy == "chet"
        context = PassContext(
            max_rescale_bits=self.options.max_rescale_bits,
            waterline_bits=waterline,
            rescale_bits=max(waterline, 1.0) if chet else None,
        )
        manager = PassManager(self._build_passes())
        reports = manager.run(working, context)

        validate(working, max_rescale_bits=self.options.max_rescale_bits)

        rotation_steps = select_rotation_steps(working)
        parameters = select_parameters(
            working,
            desired_output_scales=resolved_outputs,
            max_rescale_bits=self.options.max_rescale_bits,
            security_level=self.options.security_level,
            rotation_steps=rotation_steps,
        )
        elapsed = time.perf_counter() - start
        return CompilationResult(
            program=working,
            parameters=parameters,
            rotation_steps=rotation_steps,
            options=self.options,
            input_scales={
                name: float(term.scale or 0.0) for name, term in working.inputs.items()
            },
            output_scales=resolved_outputs,
            pass_reports=reports,
            compile_seconds=elapsed,
            signature=signature,
            source=program,
        )


def compile_program(
    program: Program,
    input_scales: Optional[Dict[str, float]] = None,
    output_scales: Optional[Dict[str, float]] = None,
    options: Optional[CompilerOptions] = None,
) -> CompilationResult:
    """Convenience wrapper: compile ``program`` with the given options."""
    return EvaCompiler(options).compile(program, input_scales, output_scales)
