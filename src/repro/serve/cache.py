"""Content-addressed response cache for the scheduling service.

One ``<key>.json`` entry per request identity under a single directory
(default ``.repro/responses/``), written and validated by
:mod:`repro.jsonstore` like the runner's cell cache: a killed service
never leaves a torn entry, concurrent writers of the *same* key race
benignly (the key is a content address of everything that determines
the result, so the last replace wins with an identical payload), and a
corrupt or foreign entry raises ``ConfigurationError``.

Entries store the **full** computed result regardless of the request's
``trace`` verbosity; the service strips presentation-only sections at
serve time, so one cached computation answers every verbosity of the
same scheduling problem.
"""

from __future__ import annotations

from pathlib import Path

from repro.jsonstore import read_entry, write_json_atomic

__all__ = [
    "RESPONSE_CACHE_SCHEMA",
    "DEFAULT_RESPONSE_CACHE_DIR",
    "ResponseCache",
]

#: Cache entry format identifier; bump when the JSON layout changes.
RESPONSE_CACHE_SCHEMA = "repro-serve-cache/1"

#: Default response cache location, next to the cell cache under ``.repro/``.
DEFAULT_RESPONSE_CACHE_DIR = ".repro/responses"


class ResponseCache:
    """Content-addressed response store under one directory."""

    def __init__(self, root: str | Path = DEFAULT_RESPONSE_CACHE_DIR) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def store(self, key: str, identity: dict, result: dict) -> Path:
        """Persist one computed response; returns the entry path.

        ``identity`` (the :func:`~repro.serve.models.request_identity`
        dict) rides along for auditability — a cache directory is
        self-describing without the requests that filled it.
        """
        payload = {
            "schema": RESPONSE_CACHE_SCHEMA,
            "key": key,
            "identity": identity,
            "result": result,
        }
        return write_json_atomic(self.path_for(key), payload)

    def load(self, key: str) -> dict | None:
        """The cached result for ``key``, or ``None`` on a miss.

        A malformed entry raises :class:`ConfigurationError`.
        """
        payload = read_entry(
            self.path_for(key),
            schema=RESPONSE_CACHE_SCHEMA,
            key=key,
            fields=("result",),
            what="response cache entry",
        )
        return None if payload is None else payload["result"]

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        return len(list(self.root.glob("*.json"))) if self.root.is_dir() else 0

    def __repr__(self) -> str:
        return f"ResponseCache({str(self.root)!r})"
