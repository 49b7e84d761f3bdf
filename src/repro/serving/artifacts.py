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

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..core.compiler import RECORD_FORMAT, RECORD_VERSION, CompilationResult
from ..core.serialization.records import RecordDirectory, write_record
from ..errors import SerializationError


class ArtifactCache(RecordDirectory):
    """A directory of compiled-program records keyed by (signature, lane width).

    It holds the file format only: the registry that consults it counts its
    hits, misses and stores (``serving.artifacts.*``).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        super().__init__(root)  # no TTL: artifacts age by mtime, via prune

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
        return path

    def load(
        self, signature: str, lane_width: Optional[int] = None
    ) -> Optional[CompilationResult]:
        """Rebuild the cached compilation, or ``None`` on miss/corruption.

        Corrupt, altered, incompatible, or mismatched records degrade to a
        miss — the caller compiles from source exactly as it would have
        without a cache, and republishes over the bad record.
        """
        record = self._read(self.path_for(signature, lane_width))
        if record is None or record.get("signature") != signature:
            return None
        try:
            return CompilationResult.from_record(record)
        except SerializationError:
            return None

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


__all__ = ["ArtifactCache"]
