"""Atomic persistence contracts of the content-addressed response cache.

Shares the runner's cell-cache store (:mod:`repro.jsonstore`): entries
land via temp file + ``os.replace`` so a crashed or concurrent writer
can never leave a torn entry, and corrupt/foreign files fail loudly
instead of serving garbage.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exceptions import ConfigurationError
from repro.serve.cache import RESPONSE_CACHE_SCHEMA, ResponseCache

pytestmark = pytest.mark.serve

IDENTITY = {"kind": "map", "heuristic": "min-min"}
RESULT = {"kind": "map", "makespan": 9.0}


def test_round_trip(tmp_path):
    cache = ResponseCache(tmp_path / "responses")
    assert cache.load("k0") is None
    assert "k0" not in cache
    path = cache.store("k0", IDENTITY, RESULT)
    assert path == cache.path_for("k0")
    assert "k0" in cache
    assert len(cache) == 1
    assert cache.load("k0") == RESULT


def test_entry_is_self_describing(tmp_path):
    cache = ResponseCache(tmp_path)
    payload = json.loads(cache.store("k0", IDENTITY, RESULT).read_text())
    assert payload["schema"] == RESPONSE_CACHE_SCHEMA
    assert payload["key"] == "k0"
    assert payload["identity"] == IDENTITY
    assert payload["result"] == RESULT


def test_store_overwrites_atomically(tmp_path):
    cache = ResponseCache(tmp_path)
    cache.store("k0", IDENTITY, {"v": 1})
    cache.store("k0", IDENTITY, {"v": 2})
    assert cache.load("k0") == {"v": 2}
    assert len(cache) == 1


def test_no_temp_files_left_behind(tmp_path):
    cache = ResponseCache(tmp_path)
    for i in range(5):
        cache.store(f"k{i}", IDENTITY, RESULT)
    assert not list(tmp_path.glob("*.tmp"))


def test_corrupt_entry_fails_loudly(tmp_path):
    cache = ResponseCache(tmp_path)
    cache.path_for("k0").parent.mkdir(parents=True, exist_ok=True)
    cache.path_for("k0").write_text("{not json")
    with pytest.raises(ConfigurationError, match="unreadable"):
        cache.load("k0")


def test_wrong_schema_entry_fails_loudly(tmp_path):
    cache = ResponseCache(tmp_path)
    cache.store("k0", IDENTITY, RESULT)
    payload = json.loads(cache.path_for("k0").read_text())
    payload["schema"] = "something-else/1"
    cache.path_for("k0").write_text(json.dumps(payload))
    with pytest.raises(ConfigurationError, match="delete it to recompute"):
        cache.load("k0")


@pytest.mark.parametrize("text", ["[]", "null", "42", '"entry"'])
def test_non_object_entry_fails_loudly(tmp_path, text):
    cache = ResponseCache(tmp_path)
    cache.path_for("k0").write_text(text)
    with pytest.raises(ConfigurationError, match="delete it to recompute"):
        cache.load("k0")


def test_entry_without_result_fails_loudly(tmp_path):
    cache = ResponseCache(tmp_path)
    path = cache.store("k0", IDENTITY, RESULT)
    payload = json.loads(path.read_text())
    del payload["result"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigurationError, match="delete it to recompute"):
        cache.load("k0")


def test_key_mismatch_fails_loudly(tmp_path):
    cache = ResponseCache(tmp_path)
    source = cache.store("k0", IDENTITY, RESULT)
    # A file renamed to a different address must be rejected.
    source.rename(cache.path_for("k1"))
    with pytest.raises(ConfigurationError):
        cache.load("k1")


def test_concurrent_same_key_writes_never_tear(tmp_path):
    """The acceptance race: N writers persisting the same key at once.

    The key is a content address, so every writer carries an identical
    payload — the last ``os.replace`` wins and *every* interleaving
    must leave one valid, complete entry plus zero temp files.
    """
    cache = ResponseCache(tmp_path)
    writers = 16

    def write_and_read(i: int) -> dict | None:
        cache.store("hot", IDENTITY, RESULT)
        return cache.load("hot")

    with ThreadPoolExecutor(max_workers=8) as pool:
        seen = list(pool.map(write_and_read, range(writers)))

    # Every read that hit the file saw a complete entry, never a torn one.
    assert all(result == RESULT for result in seen)
    assert cache.load("hot") == RESULT
    assert len(cache) == 1
    assert not list(tmp_path.glob("*.tmp"))


def test_concurrent_distinct_keys(tmp_path):
    cache = ResponseCache(tmp_path)

    def write(i: int):
        cache.store(f"k{i}", IDENTITY, {"v": i})

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(write, range(32)))

    assert len(cache) == 32
    assert all(cache.load(f"k{i}") == {"v": i} for i in range(32))
    assert not list(tmp_path.glob("*.tmp"))
