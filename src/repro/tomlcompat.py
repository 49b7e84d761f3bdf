"""The one TOML loader: ``tomllib`` where it exists, a subset parser on 3.10.

Two files are TOML — cluster configs (``serve --cluster-config``) and the
benchmark gate manifest (``benchmarks/gates.toml``) — and the oldest
supported interpreter has no ``tomllib``.  :func:`loads` is what both
readers call; the fallback covers what those files use and nothing more.
"""

from __future__ import annotations

from typing import Any, Dict


def loads(text: str) -> Dict[str, Any]:
    """Parse a TOML document (malformed input raises :class:`ValueError`)."""
    try:
        import tomllib
    except ModuleNotFoundError:
        return _parse_toml_minimal(text)
    return tomllib.loads(text)


def _strip_comment(line: str) -> str:
    quote = ""
    for position, char in enumerate(line):
        if quote:
            if char == quote:
                quote = ""
        elif char in "\"'":
            quote = char
        elif char == "#":
            return line[:position].strip()
    return line.strip()


def _toml_scalar(text: str) -> Any:
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in ("'", '"'):
        return text[1:-1]
    if text.startswith("[") and text.endswith("]"):
        return [_toml_scalar(part) for part in text[1:-1].split(",") if part.strip()]
    if text in ("true", "false"):
        return text == "true"
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    raise ValueError(f"unsupported TOML value {text!r}")


def _parse_toml_minimal(text: str) -> Dict[str, Any]:
    """The subset the repo's TOML files use: ``[table]`` / ``[dotted.table]``
    / ``[[array-of-tables]]`` headers and ``key = value`` pairs whose values
    are strings, ints, floats, booleans or one-line arrays of those, with
    ``#`` comments.  No escapes, multi-line values, inline tables or dates.
    """
    data: Dict[str, Any] = {}
    current = data
    for raw_line in text.splitlines():
        line = _strip_comment(raw_line)
        if not line:
            continue
        if line.startswith("[[") and line.endswith("]]"):
            current = {}
            data.setdefault(line[2:-2].strip(), []).append(current)
        elif line.startswith("[") and line.endswith("]"):
            current = data
            for part in line[1:-1].split("."):
                current = current.setdefault(part.strip(), {})
        elif "=" in line and not line.startswith("["):
            key, _, value = line.partition("=")
            current[key.strip()] = _toml_scalar(value)
        else:
            raise ValueError(f"malformed TOML line {line!r}")
    return data
