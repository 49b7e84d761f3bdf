"""Shared on-disk cache of compiled-program artifacts.

In a sharded deployment every :class:`~repro.serving.server.EvaServer` shard
owns a private in-memory :class:`~repro.serving.registry.ProgramRegistry`, so
each shard pays the full Transform/Validate/DetermineParameters pipeline for
every program — and for every lane-width variant the batcher resolves — even
when a sibling shard compiled the identical program minutes earlier.  The
:class:`ArtifactCache` removes that duplication: the first shard to compile a
``(program signature, lane width)`` pair publishes the finished compilation
as one JSON file, and every other shard (or a restarted shard, or tomorrow's
fleet) *loads* it instead of recompiling.

A cached artifact is the compiled program's own record
(:meth:`CompilationResult.to_record <repro.core.compiler.CompilationResult.to_record>`,
written without the source graph): the compiled graph, compiler options,
scale maps, the selected encryption parameters and the rotation steps — so
loading skips not just the rewrite passes but parameter selection too — sealed
with a digest that the one reader checks before building anything.  The
content signature (:func:`repro.core.compiler.program_signature`) keys the
cache exactly as it keys the in-memory registry, which makes cache poisoning
by name impossible: a record can only ever be loaded by a server that would
have compiled the same source with the same options.

The directory is a :class:`~repro.core.serialization.records.RecordDirectory`
(atomic publish, ``prune``), so shard processes sharing it never observe a
torn record.  Two shards racing to compile the same signature both publish —
the last writer wins, and both wrote byte-identical semantics because
compilation is deterministic in the signature.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..core.compiler import RECORD_FORMAT, RECORD_VERSION, CompilationResult
from ..core.serialization.records import RecordDirectory, write_record
from ..errors import SerializationError


class ArtifactCache(RecordDirectory):
    """A directory of compiled-program records keyed by (signature, lane width)."""

    def __init__(self, root: Union[str, Path]) -> None:
        super().__init__(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def accepts(self, record: Dict[str, Any]) -> bool:
        """Records of another format or version (an earlier build's) read as
        missing: the shard recompiles and republishes over them."""
        return (
            record.get("format") == RECORD_FORMAT
            and record.get("version") == RECORD_VERSION
        )

    def path_for(self, signature: str, lane_width: Optional[int] = None) -> Path:
        """The cache file path for a (signature, lane width) record."""
        return self._path(f"{signature}.w{int(lane_width or 0)}")

    def save(self, compilation: CompilationResult) -> Path:
        """Publish one finished compilation under its signature; returns the path."""
        path = self.path_for(compilation.signature, compilation.lane_width)
        record = compilation.to_record(include_source=False)
        with self._lock:
            write_record(path, record)
            self.stores += 1
        return path

    def load(
        self, signature: str, lane_width: Optional[int] = None
    ) -> Optional[CompilationResult]:
        """Rebuild the cached compilation, or ``None`` on miss/corruption.

        Corrupt, altered, incompatible, or mismatched records degrade to a
        miss — the caller compiles from source exactly as it would have
        without a cache, and republishes over the bad record.
        """
        compilation = None
        record = self._read(self.path_for(signature, lane_width))
        if record is not None and record.get("signature") == signature:
            try:
                compilation = CompilationResult.from_record(record)
            except SerializationError:
                pass
        with self._lock:
            if compilation is None:
                self.misses += 1
            else:
                self.hits += 1
        return compilation

    def records(self) -> List[Dict[str, Any]]:
        """Metadata of every readable artifact (compiled graphs omitted)."""
        return [
            {
                "signature": record.get("signature"),
                "lane_width": record.get("options", {}).get("lane_width"),
                "compile_seconds": record.get("compile_seconds"),
                "path": str(path),
            }
            for path, record in self
        ]

    def summary(self) -> Dict[str, object]:
        """Cheap monitoring view: counts files without parsing graphs."""
        with self._lock:
            return {
                "root": str(self.root),
                "records": self.file_count(),
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
            }


# -- lane-width precompilation -----------------------------------------------------
@dataclass
class LaneWidthPolicy:
    """When and how aggressively to pre-warm lane-width variants.

    Lane-width selection is per-batch greedy: the first batch at a new width
    pays the variant's full compilation inline.  This policy removes that
    first-batch latency cliff by watching the *request-width histogram* of
    each program and pre-compiling the most frequent widths in the background
    (publishing them to the shared :class:`ArtifactCache`, so one shard's
    pre-warm covers the whole fleet).

    Width *selection* is cost-model-driven: instead of pre-warming whatever
    widths are merely frequent, :meth:`choose_widths` scores every candidate
    width by the modeled per-request serving cost — evaluation seconds divided
    by lane capacity for the requests that fit (slot waste shows up here: a
    narrow request in a wide lane shares the ciphertext with fewer peers),
    solo evaluation for the requests that don't, plus the amortized
    generation/upload cost of the width's Galois key set (after BSGS
    planning, so a width whose step set decomposes well scores better).

    Attributes
    ----------
    min_samples:
        Re-evaluate a program's histogram every ``min_samples`` requests.
    top_widths:
        How many of the best-scoring widths to pre-warm per evaluation.
    """

    min_samples: int = 32
    top_widths: int = 2

    def __post_init__(self) -> None:
        if self.min_samples < 1:
            raise ValueError("min_samples must be at least 1")
        if self.top_widths < 1:
            raise ValueError("top_widths must be at least 1")

    def choose_widths(
        self,
        compilation: CompilationResult,
        counts: Dict[int, int],
        cost_model=None,
    ) -> List[tuple]:
        """Rank candidate lane widths by modeled per-request cost.

        ``counts`` is the signature's width histogram (power-of-two request
        width -> observations).  Returns ``[(width, score), ...]`` with the
        cheapest modeled width first, truncated to ``top_widths``; scores are
        modeled seconds per request (lower is better).
        """
        vec_size = compilation.program.vec_size
        candidates = sorted(
            width
            for width in counts
            if 0 < width < vec_size and vec_size % int(width) == 0
        )
        if not candidates:
            return []
        if cost_model is None:
            from ..backend.cost_model import DEFAULT_COST_MODEL

            cost_model = DEFAULT_COST_MODEL
        from ..core.analysis.rotations import (
            lane_rotation_profile,
            plan_rotation_steps,
        )

        parameters = compilation.parameters
        poly = parameters.poly_modulus_degree
        levels = max(len(parameters.coeff_modulus_bits), 1)
        base_seconds = cost_model.program_seconds(compilation.program, poly, levels)
        base_rotations = len(compilation.rotation_steps)
        total = float(sum(counts.values())) or 1.0

        def score(width: int) -> float:
            """Modeled amortized per-request cost of serving at this width."""
            capacity = vec_size // width
            # Lane-lowering overhead on the base graph: one plain multiply
            # and one add per masked rotation, plus the hoisted wrap
            # rotation.  Slotwise programs lower to themselves.
            lane_seconds = base_seconds
            lane_steps: List[int] = []
            if base_rotations:
                lane_steps = lane_rotation_profile(
                    compilation.rotation_steps, width, vec_size
                )
                lane_seconds += base_rotations * (
                    cost_model.op_seconds("multiply_plain", poly, levels)
                    + cost_model.op_seconds("add", poly, levels)
                ) + cost_model.op_seconds("rotate", poly, levels)
            plan = plan_rotation_steps(
                lane_steps, vec_size, mode="auto", cost_model=cost_model,
                poly_degree=poly, levels=levels,
            )
            key_seconds = cost_model.rotation_plan_seconds(
                len(plan.key_steps), plan.extra_rotations, poly, levels
            )
            per_batch = lane_seconds + key_seconds / cost_model.session_evaluations
            cost = 0.0
            for observed, count in counts.items():
                if observed <= width:
                    cost += count * per_batch / capacity
                else:
                    cost += count * base_seconds  # too wide: served solo
            return cost / total

        ranked = sorted(candidates, key=lambda w: (score(w), w))
        return [(w, score(w)) for w in ranked[: self.top_widths]]


class WidthHistogram:
    """Thread-safe per-signature histogram of (power-of-two) request widths."""

    def __init__(self) -> None:
        self._counts: Dict[str, Dict[int, int]] = {}
        self._lock = threading.Lock()

    def record(self, signature: str, width: int) -> int:
        """Count one request of ``width``; returns the signature's sample count."""
        width = int(width)
        with self._lock:
            counts = self._counts.setdefault(signature, {})
            counts[width] = counts.get(width, 0) + 1
            return sum(counts.values())

    def counts(self, signature: str) -> Dict[int, int]:
        """A snapshot of the signature's width histogram (width -> count)."""
        with self._lock:
            return dict(self._counts.get(signature, {}))

    def summary(self) -> Dict[str, Dict[int, int]]:
        """Per-signature width histograms, for stats and debugging."""
        with self._lock:
            return {
                signature[:12]: dict(sorted(counts.items()))
                for signature, counts in self._counts.items()
            }


__all__ = ["ArtifactCache", "LaneWidthPolicy", "WidthHistogram"]
