"""Persisted JSON records: one write discipline, one directory-of-records class.

Everything this package keeps on disk between processes — a saved compiled
program, the compiled-artifact cache of ``--artifact-dir``, the evaluation-key
records of ``--session-dir`` — is a single JSON object in a single file, and
every one of them goes through the two functions here:

* :func:`write_record` serializes into a temp file beside the target and
  renames it over the target, so a record that cannot be serialized leaves
  the old file untouched and a concurrent reader (another shard process) sees
  nothing, the old record, or the new one — never a torn file;
* :func:`read_record` answers a JSON object or ``None``: a missing file, a
  directory, a truncated or non-JSON file and JSON that is not an object all
  read as "no record", which each kind of record then turns into what that
  means for it (a cache miss, "create a session first", a
  :class:`~repro.errors.SerializationError`).

:class:`RecordDirectory` is the directory both serving stores are: keys become
file names, records age by their ``saved_at`` stamp (by the file's mtime when
they carry none or cannot be read), and :meth:`~RecordDirectory.prune` sweeps
old records and the temp files a killed writer left behind.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union


def write_record(path: Union[str, Path], record: Dict[str, Any]) -> None:
    """Publish ``record`` at ``path`` atomically (temp file + ``os.replace``).

    The temp file is created in ``path``'s directory so the final rename stays
    on one filesystem; whatever goes wrong before the rename removes it and
    leaves the target as it was.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        os.replace(tmp_name, path)
    except BaseException:
        unlink_quietly(Path(tmp_name))
        raise


def read_record(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The JSON object stored at ``path``, or ``None`` when there is none."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, ValueError):  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        return None
    return record if isinstance(record, dict) else None


class RecordDirectory:
    """A directory of JSON records, one ``<key>.json`` file each.

    Deliberately dumb: no index, no locking protocol beyond atomic whole-file
    replacement, so any number of shard processes (or hosts sharing a
    filesystem) can use one directory without coordination.  A subclass says
    what a record of its kind looks like (:meth:`accepts`), how a key is
    derived, and what it counts.
    """

    def __init__(self, root: Union[str, Path], ttl: Optional[float] = None) -> None:
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive seconds (or None to disable)")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Optional record lifetime in seconds: reads treat older records as
        #: missing, and :meth:`prune` deletes them.
        self.ttl = float(ttl) if ttl is not None else None
        self._lock = threading.Lock()

    def accepts(self, record: Dict[str, Any]) -> bool:
        """Whether a readable JSON object is a record of this store's kind."""
        return True

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _read(self, path: Path) -> Optional[Dict[str, Any]]:
        record = read_record(path)
        return record if record is not None and self.accepts(record) else None

    def _expired(
        self, path: Path, record: Optional[Dict[str, Any]], max_age: Optional[float]
    ) -> bool:
        """Whether the file is older than ``max_age`` seconds (None: never)."""
        if max_age is None:
            return False
        saved_at = record.get("saved_at") if record else None
        if not isinstance(saved_at, (int, float)):
            # Unreadable, or a kind that carries no stamp: the filesystem clock.
            try:
                saved_at = path.stat().st_mtime
            except OSError:
                return False
        return (time.time() - float(saved_at)) > float(max_age)

    def _live(self, path: Path) -> Optional[Dict[str, Any]]:
        """The record at ``path`` unless it is missing or past the TTL.

        An expired record is deleted under the lock, after re-reading: a
        concurrent writer may have just republished a fresh record at this
        path, and deleting that would silently destroy it.  (Writers of this
        process hold the same lock; a cross-process writer stamps a fresh
        ``saved_at``, which the re-read observes.)
        """
        record = self._read(path)
        if record is None or not self._expired(path, record, self.ttl):
            return record
        with self._lock:
            if self._expired(path, self._read(path), self.ttl):
                unlink_quietly(path)
        return None

    def __iter__(self) -> Iterator[Tuple[Path, Dict[str, Any]]]:
        """``(path, record)`` of every readable record, in file-name order."""
        for path in sorted(self.root.glob("*.json")):
            record = self._read(path)
            if record is not None:
                yield path, record

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def file_count(self) -> int:
        """Record files present, unparsed — cheap enough for every ``stats()``
        call, and so possibly counting files :meth:`__iter__` would skip."""
        return sum(1 for _ in self.root.glob("*.json"))

    def prune(self, max_age: Optional[float] = None) -> int:
        """Delete records older than ``max_age`` seconds (defaults to the TTL).

        Unreadable files age by their mtime, so they get swept too — and so do
        the ``*.tmp`` files of a writer killed between creating its temp file
        and renaming it.  Returns the number of files removed; a no-op without
        a bound.
        """
        max_age = max_age if max_age is not None else self.ttl
        if max_age is None:
            return 0
        with self._lock:
            stale = [
                path
                for path in self.root.glob("*.json")
                if self._expired(path, self._read(path), max_age)
            ]
            stale += [
                path for path in self.root.glob("*.tmp") if self._expired(path, None, max_age)
            ]
            return sum(unlink_quietly(path) for path in stale)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} root={str(self.root)!r}>"


def unlink_quietly(path: Path) -> bool:
    """Remove ``path``; whether this call removed it (a racing sweeper may have)."""
    try:
        path.unlink()
        return True
    except OSError:
        return False
