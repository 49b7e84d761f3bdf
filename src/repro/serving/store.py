"""Disk-backed persistence of client evaluation-key material.

The session caches in :mod:`repro.serving.sessions` hold *live* backend
contexts, so every session dies with its process: a server restart — or, in a
sharded deployment, the loss of one shard — forces every client back through
``create_session``.  The :class:`SessionStore` removes that coupling by
persisting the exported evaluation-key blob (the JSON-able dictionary from
``ClientKit.export_evaluation_keys()``, which never contains the secret key)
to disk, keyed by the client identity plus everything key generation depends
on: the encryption parameters and the rotation steps of the compilation.

Any process that can read the store directory can then lazily rebuild an
evaluation context for a returning client via
``HomomorphicBackend.create_evaluation_context`` — which is exactly what
:class:`~repro.serving.server.EvaServer` does when a pre-encrypted bundle
arrives for a client it has never seen.  Sessions therefore survive both a
full server restart and a shard failure followed by a reroute (the new shard
reads the blob the old shard persisted).

Records are single JSON files in a
:class:`~repro.core.serialization.records.RecordDirectory` (atomic publish,
TTL, ``prune``), so concurrent shard processes sharing one directory never
observe a torn record; the last writer of a key wins, which is safe for the
key material because every writer of one key holds the same client's blob.
The record carries no digest: it is 1.5 MB on a real backend and its write is
on the clock of every new client (a second, canonical serialization doubled
it), the key importer validates what it decodes, and docs/wire-protocol.md
promises that a record of an earlier build still decodes.  The record's
``programs`` list is advisory metadata: the in-process lock merges names
saved by one process, but two *processes* saving the same key concurrently
may keep only the last writer's list.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..core.compiler import CompilationResult
from ..core.serialization.packing import jsonable_blobs
from ..core.serialization.records import RecordDirectory, write_record

#: Format version stamped into every record.
STORE_VERSION = 1


def session_digest(compilation: CompilationResult, client_id: str) -> str:
    """Stable digest of (client, keygen-relevant parameters) for one session.

    Mirrors :func:`repro.serving.sessions.session_key`: two compilations with
    the same encryption parameters *and* rotation steps can share key
    material, anything else cannot.
    """
    parameters = compilation.parameters
    key = [
        str(client_id),
        int(parameters.poly_modulus_degree),
        [int(b) for b in parameters.coeff_modulus_bits],
        sorted(int(s) for s in compilation.rotation_steps),
    ]
    if (parameters.special_primes, parameters.group_size) != (1, 1):
        key.append([int(parameters.special_primes), int(parameters.group_size)])
    return hashlib.sha256(json.dumps(key, separators=(",", ":")).encode("utf-8")).hexdigest()[:32]


class SessionStore(RecordDirectory):
    """A directory of persisted evaluation-key records, one JSON file each.

    Safe to share between the shard processes of an
    :class:`~repro.serving.cluster.EvaCluster` (and across full server
    restarts) without any coordination.  With a ``ttl``, records past it read
    as missing — an expired session must force the client back through
    ``create_session``, not silently serve stale keys — and :meth:`prune`
    deletes them; without one a long-lived ``--session-dir`` grows one record
    per (client, parameters) pair forever.
    """

    def accepts(self, record: Dict[str, Any]) -> bool:
        """Unversioned or other-version files read as missing."""
        return record.get("version") == STORE_VERSION

    def path_for(self, client_id: str, compilation: CompilationResult) -> Path:
        """The store file path for a (client, compilation) record."""
        return self._path(session_digest(compilation, client_id))

    def save(
        self,
        client_id: str,
        compilation: CompilationResult,
        evaluation_keys: Dict[str, Any],
        program: Optional[str] = None,
    ) -> Path:
        """Persist ``evaluation_keys`` for ``(client, compilation)``.

        Re-saving the same session merges the ``program`` name into the
        record's program list (several registered programs may share one set
        of encryption parameters and hence one session).
        """
        if not isinstance(evaluation_keys, dict):
            raise TypeError(
                "evaluation_keys must be the JSON-able blob from "
                "export_evaluation_keys(), got "
                f"{type(evaluation_keys).__name__}"
            )
        path = self.path_for(client_id, compilation)
        with self._lock:
            programs = set()
            existing = self._read(path)
            if existing is not None:
                programs.update(existing.get("programs", ()))
            if program:
                programs.add(str(program))
            parameters = compilation.parameters
            record = {
                "version": STORE_VERSION,
                "client_id": str(client_id),
                "saved_at": time.time(),
                "parameters": {
                    "poly_modulus_degree": int(parameters.poly_modulus_degree),
                    "coeff_modulus_bits": [int(b) for b in parameters.coeff_modulus_bits],
                    "rotation_steps": sorted(int(s) for s in compilation.rotation_steps),
                },
                "programs": sorted(programs),
                # Keys received over the binary wire carry raw (memoryview)
                # packed records; the on-disk store stays plain JSON.
                "evaluation_keys": jsonable_blobs(evaluation_keys),
            }
            write_record(path, record)
        return path

    def load(
        self, client_id: str, compilation: CompilationResult
    ) -> Optional[Dict[str, Any]]:
        """The persisted key blob for ``(client, compilation)``, or ``None``
        (no record, an unreadable one, or one past the TTL)."""
        record = self._live(self.path_for(client_id, compilation))
        keys = record.get("evaluation_keys") if record else None
        return keys if isinstance(keys, dict) else None

    def records(self) -> List[Dict[str, Any]]:
        """Metadata of every readable record (key blobs omitted)."""
        return [
            {
                "client_id": record.get("client_id"),
                "programs": record.get("programs", []),
                "parameters": record.get("parameters", {}),
                "saved_at": record.get("saved_at"),
                "path": str(path),
            }
            for path, record in self
        ]

    def summary(self) -> Dict[str, object]:
        """Cheap monitoring view: counts files without parsing key blobs.

        Real CKKS key blobs dominate record size, and ``summary`` runs on
        every ``EvaServer.stats()`` call — so this must not read them.  The
        count may include records :meth:`records` would reject as corrupt;
        use :meth:`records` (which parses everything) for the exact view.
        """
        return {"root": str(self.root), "ttl": self.ttl, "records": self.file_count()}
