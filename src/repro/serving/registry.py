"""Compile-once program registry with LRU eviction and hit/miss accounting.

The serving layer compiles every distinct (program graph, compiler options,
scale overrides) combination exactly once: :func:`repro.core.program_signature`
gives a stable content hash for the combination, and the registry caches the
resulting :class:`~repro.core.compiler.CompilationResult` under it.  Repeat
requests therefore skip the whole Transform/Validate/DetermineParameters
pipeline, which dominates cold-request latency for small programs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import replace
from typing import Any, Dict, Optional, Tuple

from ..core.compiler import (
    CompilationResult,
    CompilerOptions,
    EvaCompiler,
    program_signature,
)
from ..core.ir import Program
from .telemetry import MetricsRegistry, Telemetry


def read_counters(metrics: MetricsRegistry, names: Tuple[str, ...]) -> Dict[str, Any]:
    """Unlabelled counters, keyed by the last part of their names."""
    return {name.rsplit(".", 1)[1]: int(metrics.counter_value(name)) for name in names}


def cache_view(metrics: MetricsRegistry, names: Tuple[str, ...]) -> Dict[str, Any]:
    """Hits, misses, evictions and hit rate of one cache, read from its counters."""
    view = read_counters(metrics, names)
    lookups = view["hits"] + view["misses"]
    return {**view, "hit_rate": round(view["hits"] / lookups, 4) if lookups else 0.0}


_COUNTERS = ("serving.registry.hits", "serving.registry.misses", "serving.registry.evictions")
_ARTIFACT_COUNTERS = (
    "serving.artifacts.hits",
    "serving.artifacts.misses",
    "serving.artifacts.stores",
)


class ProgramRegistry:
    """LRU cache of compiled programs keyed by content signature.

    ``capacity`` bounds the number of distinct compilations kept alive;
    the least-recently-used entry is evicted when a new compilation would
    exceed it.  All methods are thread-safe: concurrent workers serving
    the same program race to compile only on the very first request (the
    compile itself runs outside the lock, and the first finisher wins).

    ``artifacts`` (an :class:`~repro.serving.artifacts.ArtifactCache`) adds
    a second, on-disk tier shared across processes: a memory miss first
    tries to *load* the finished compilation a sibling shard published
    before falling back to compiling from source, and every fresh compile
    is published for the rest of the fleet.

    Lookups, evictions and artifact loads and stores are counted in
    ``telemetry`` (the server's, or a fresh one), where :meth:`summary`
    reads them back.
    """

    def __init__(
        self,
        capacity: int = 64,
        artifacts: Optional[Any] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("registry capacity must be at least 1")
        self.capacity = capacity
        self.artifacts = artifacts
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        for name in _COUNTERS + (_ARTIFACT_COUNTERS if artifacts is not None else ()):
            self.telemetry.inc(name, 0.0)
        self.telemetry.set_gauge("serving.registry.capacity", capacity)
        self._entries: "OrderedDict[str, CompilationResult]" = OrderedDict()
        #: Index from (base signature, lane width) to the variant's own
        #: signature, so the warm path of :meth:`get_or_compile_variant`
        #: never re-hashes the program graph.
        self._variants: "OrderedDict[Tuple[str, int], str]" = OrderedDict()
        self._lock = threading.Lock()
        self._count_entries()

    def _count_entries(self) -> None:
        """Publish the entry count (lock held, or during construction)."""
        self.telemetry.set_gauge("serving.registry.entries", len(self._entries))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, signature: str) -> bool:
        with self._lock:
            return signature in self._entries

    def lookup(self, signature: str) -> Optional[CompilationResult]:
        """Return the cached compilation for ``signature`` or None (counts)."""
        with self._lock:
            compilation = self._entries.get(signature)
            if compilation is None:
                self.telemetry.inc("serving.registry.misses")
                return None
            self._entries.move_to_end(signature)
            self.telemetry.inc("serving.registry.hits")
            return compilation

    def get_or_compile(
        self,
        program: Program,
        options: Optional[CompilerOptions] = None,
        input_scales: Optional[Dict[str, float]] = None,
        output_scales: Optional[Dict[str, float]] = None,
        signature: Optional[str] = None,
    ) -> CompilationResult:
        """Return the compilation of ``program``, compiling at most once.

        ``signature`` lets callers that computed the content hash up front
        (e.g. at registration time) skip re-hashing the graph per request.
        """
        if signature is None:
            signature = program_signature(program, options, input_scales, output_scales)
        cached = self.lookup(signature)
        if cached is not None:
            return cached
        if self.artifacts is not None:
            lane_width = (options or CompilerOptions()).lane_width
            loaded = self.artifacts.load(signature, lane_width)
            self.telemetry.inc(
                "serving.artifacts.misses" if loaded is None else "serving.artifacts.hits"
            )
            if loaded is not None:
                return self.insert(signature, loaded)
        compilation = EvaCompiler(options).compile(program, input_scales, output_scales)
        if self.artifacts is not None:
            try:
                self.artifacts.save(compilation)
            except Exception as exc:  # publishing is best-effort, serving is not
                import warnings

                warnings.warn(
                    f"could not publish compiled artifact {signature[:12]}...: "
                    f"{type(exc).__name__}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            else:
                self.telemetry.inc("serving.artifacts.stores")
        return self.insert(signature, compilation)

    def get_or_compile_variant(
        self,
        program: Program,
        options: Optional[CompilerOptions] = None,
        input_scales: Optional[Dict[str, float]] = None,
        output_scales: Optional[Dict[str, float]] = None,
        lane_width: Optional[int] = None,
        base_signature: Optional[str] = None,
    ) -> CompilationResult:
        """Resolve the ``lane_width`` variant of a program, compiling at most once.

        Lane variants are ordinary registry entries — their signatures differ
        from the base because ``lane_width`` is a compiler option — plus an
        index from ``(base_signature, lane_width)`` to the variant signature
        so repeat batches skip re-hashing the graph.  With ``lane_width``
        None (or equal to the base options') this is :meth:`get_or_compile`.
        """
        base_options = options or CompilerOptions()
        if lane_width is None or lane_width == base_options.lane_width:
            return self.get_or_compile(
                program, base_options, input_scales, output_scales,
                signature=base_signature,
            )
        lane_width = int(lane_width)
        if base_signature is not None:
            with self._lock:
                known = self._variants.get((base_signature, lane_width))
            if known is not None:
                cached = self.lookup(known)
                if cached is not None:
                    return cached
        variant_options = replace(base_options, lane_width=lane_width)
        signature = program_signature(
            program, variant_options, input_scales, output_scales
        )
        if base_signature is not None:
            with self._lock:
                self._variants[(base_signature, lane_width)] = signature
                while len(self._variants) > 4 * self.capacity:
                    self._variants.popitem(last=False)
        return self.get_or_compile(
            program, variant_options, input_scales, output_scales,
            signature=signature,
        )

    def insert(
        self, signature: str, compilation: CompilationResult
    ) -> CompilationResult:
        """Insert a finished compilation under ``signature`` (or yield the
        racing winner); returns the surviving object.

        A race loser must hand its caller the *cached* compilation, not its
        own duplicate, so identity-keyed caches downstream stay coherent.
        """
        with self._lock:
            existing = self._entries.get(signature)
            if existing is not None:
                # A concurrent worker compiled the same program first; keep
                # the existing entry so cached identity stays stable.
                self._entries.move_to_end(signature)
                return existing
            self._entries[signature] = compilation
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.telemetry.inc("serving.registry.evictions")
            self._count_entries()
            return compilation

    def clear(self) -> None:
        """Drop every cached compilation (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._variants.clear()
            self._count_entries()

    def summary(self) -> Dict[str, object]:
        """Cache size and counters, read back from the telemetry registry."""
        metrics = self.telemetry.registry
        summary: Dict[str, object] = {
            "capacity": self.capacity,
            "entries": int(metrics.gauge_value("serving.registry.entries")),
            **cache_view(metrics, _COUNTERS),
        }
        if self.artifacts is not None:
            summary["artifacts"] = {
                "root": str(self.artifacts.root),
                "records": self.artifacts.file_count(),
                **read_counters(metrics, _ARTIFACT_COUNTERS),
            }
        return summary
