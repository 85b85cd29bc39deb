"""Atomic canonical-JSON files: the one write and read path of the caches.

The runner's cell cache, the service's response cache and the ETC store
manifest all persist one JSON document per file through
:func:`write_json_atomic`: canonical text (sorted keys, no whitespace,
one trailing newline), so an entry's bytes depend only on its content,
landed by a temp file in the target directory and an atomic rename, so a
killed writer never leaves a torn file and concurrent writers of one
content-addressed key race benignly.  :func:`read_entry` is the one
validator of self-describing ``{"schema", "key", ...}`` cache entries.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable
from pathlib import Path

from repro.exceptions import ConfigurationError

__all__ = ["write_json_atomic", "read_entry"]


def write_json_atomic(path: str | Path, payload, *, fsync: bool = False) -> Path:
    """Write ``payload`` as canonical JSON to ``path``, atomically.

    Creates the parent directory if needed; ``fsync=True`` flushes the
    temp file to disk before the rename; returns ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def read_entry(
    path: str | Path,
    *,
    schema: str,
    key: str,
    fields: Iterable[str],
    what: str,
) -> dict | None:
    """The entry stored at ``path``, or ``None`` when there is none.

    A hit must be a JSON object whose ``schema`` and ``key`` match and
    which carries every name in ``fields``; ``what`` names the kind of
    entry in the error.  One open, one read and one ``json.loads`` per
    hit — the hot path of a cached service.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.loads(handle.read())
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise ConfigurationError(
            f"unreadable {what} {path} ({exc}); delete it to recompute"
        ) from None
    if (
        not isinstance(payload, dict)
        or payload.get("schema") != schema
        or payload.get("key") != key
        or not all(name in payload for name in fields)
    ):
        raise ConfigurationError(
            f"{path}: not a complete {schema} {what} for key {key[:12]}…; "
            "delete it to recompute"
        )
    return payload
