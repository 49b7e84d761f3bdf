"""Serialization of EVA programs.

A program has one serialized form, the binary proto3 format of Figure 1
(:mod:`.proto`): :func:`save` writes it, :func:`load` reads it, a compiled
record embeds it, and :func:`~repro.core.compiler.program_signature` is the
SHA-256 of its bytes plus the compiler options and scale overrides.
:mod:`.messages` and :mod:`.packing` are the serving wire, not programs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from ...errors import SerializationError
from ..ir import Program
from . import messages, packing, proto
from .proto import deserialize, serialize

__all__ = [
    "serialize",
    "deserialize",
    "save",
    "load",
    "proto",
    "messages",
    "packing",
]


def save(program: Program, path: Union[str, Path]) -> None:
    """Save a program to disk in the binary proto3 format of Figure 1."""
    Path(path).write_bytes(serialize(program))


def load(path: Union[str, Path]) -> Program:
    """Load a program saved with :func:`save`, named after the file's stem."""
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"no such program file: {path}")
    return deserialize(path.read_bytes(), name=path.stem)
