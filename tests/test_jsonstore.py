"""The shared entry store under the cell and response caches.

Two kinds of tests:

* unit contracts of :mod:`repro.jsonstore` — canonical bytes, atomic
  replace, temp-file cleanup on failure, one ``ConfigurationError`` for
  every malformed entry;
* a byte-identity pin for existing caches.  ``data/cell_entry.json``
  and ``data/response_entry.json`` were written by the caches before
  they moved onto :mod:`repro.jsonstore`; their SHA-256 digests are
  pinned below.  The caches must still write exactly those bytes for
  the same seeded cell and iterate request, and still load those files
  to the same records and result, so ``.repro/`` caches from earlier
  versions stay valid.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.analysis.experiments import ExperimentConfig, run_experiment
from repro.analysis.runner import CellCache, cell_key
from repro.exceptions import ConfigurationError
from repro.jsonstore import read_entry, write_json_atomic
from repro.serve.cache import ResponseCache
from repro.serve.models import parse_request, request_identity, request_key
from repro.serve.service import execute_request

DATA = Path(__file__).parent / "data"

CELL_CONFIG = ExperimentConfig(
    heuristics=("mct", "sufferage"),
    num_tasks=6,
    num_machines=3,
    instances_per_cell=2,
    seed=3,
)
CELL_KEY = "743477c8a8f0d51fe5c3c075b4d673ee789f69acc4f9dc3836afd9cacb1d9b30"
CELL_SHA256 = "143e053ad32624ea82081240e2d8fea305fa24eee6af042a0638a9ed8c3218ca"
POISON_SHA256 = "cc69d3fcf60aa44383b1013325a0a5b68bd2a4a212e550374421333f5e9f4099"

ITERATE_BODY = {
    "kind": "iterate",
    "heuristic": "sufferage",
    "etc": {
        "values": [
            [3.0, 5.0, 4.0],
            [2.0, 2.5, 6.0],
            [7.0, 1.5, 3.5],
            [4.0, 4.0, 2.0],
            [5.5, 3.0, 1.0],
        ]
    },
}
RESPONSE_KEY = "10e9c2f17fb4352f35997140b75c8669a87635005f9281a5fa62ea6a73c35320"
RESPONSE_SHA256 = "24ba77b26ec41003c2f00ef3402723517f8a583680e9a72e5f1b442b514e9c46"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestWriteJsonAtomic:
    def test_canonical_text(self, tmp_path):
        path = write_json_atomic(tmp_path / "a.json", {"b": [1, 2.5], "a": None})
        assert path.read_text(encoding="utf-8") == '{"a":null,"b":[1,2.5]}\n'

    @pytest.mark.parametrize("fsync", [False, True])
    def test_creates_parent_and_replaces(self, tmp_path, fsync):
        path = tmp_path / "deep" / "dir" / "e.json"
        write_json_atomic(path, {"v": 1}, fsync=fsync)
        write_json_atomic(path, {"v": 2}, fsync=fsync)
        assert json.loads(path.read_text()) == {"v": 2}
        assert not list(path.parent.glob("*.tmp"))

    def test_failed_write_keeps_old_entry_and_leaves_no_temp(self, tmp_path):
        path = write_json_atomic(tmp_path / "e.json", {"v": 1})
        with pytest.raises(TypeError):
            write_json_atomic(path, {"v": object()})
        assert json.loads(path.read_text()) == {"v": 1}
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_replace_removes_temp(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            write_json_atomic(tmp_path / "e.json", {"v": 1})
        assert list(tmp_path.iterdir()) == []


class TestReadEntry:
    KW = dict(schema="s/1", key="k", fields=("body",), what="test entry")

    def test_miss_is_none(self, tmp_path):
        assert read_entry(tmp_path / "absent.json", **self.KW) is None

    def test_hit_returns_payload(self, tmp_path):
        payload = {"schema": "s/1", "key": "k", "body": [1]}
        path = write_json_atomic(tmp_path / "e.json", payload)
        assert read_entry(path, **self.KW) == payload

    @pytest.mark.parametrize(
        "text",
        [
            "{torn",
            "\xff\xfe",
            "[]",
            "null",
            '{"schema":"other/1","key":"k","body":1}',
            '{"schema":"s/1","key":"other","body":1}',
            '{"schema":"s/1","key":"k"}',
        ],
    )
    def test_malformed_entry_raises_one_error(self, tmp_path, text):
        path = tmp_path / "e.json"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ConfigurationError) as info:
            read_entry(path, **self.KW)
        message = str(info.value)
        assert str(path) in message
        assert message.endswith("delete it to recompute")

    def test_directory_in_the_way_raises(self, tmp_path):
        (tmp_path / "e.json").mkdir()
        with pytest.raises(ConfigurationError, match="delete it to recompute"):
            read_entry(tmp_path / "e.json", **self.KW)


class TestCachedBytesUnchanged:
    """Entries written before the shared store are still valid."""

    def test_fixtures_are_the_pinned_entries(self):
        assert sha256(DATA / "cell_entry.json") == CELL_SHA256
        assert sha256(DATA / "response_entry.json") == RESPONSE_SHA256

    def test_cell_entry_bytes(self, tmp_path):
        cache = CellCache(tmp_path)
        assert cell_key(CELL_CONFIG) == CELL_KEY
        path = cache.store(CELL_KEY, CELL_CONFIG, run_experiment(CELL_CONFIG), None)
        assert path == cache.path_for(CELL_KEY)
        assert sha256(path) == CELL_SHA256

    def test_poison_marker_bytes(self, tmp_path):
        path = CellCache(tmp_path).poison(
            CELL_KEY, CELL_CONFIG, "ValueError('boom')", 2
        )
        assert sha256(path) == POISON_SHA256

    def test_response_entry_bytes(self, tmp_path):
        request = parse_request(ITERATE_BODY)
        assert request_key(request) == RESPONSE_KEY
        path = ResponseCache(tmp_path).store(
            RESPONSE_KEY, request_identity(request), execute_request(request)
        )
        assert sha256(path) == RESPONSE_SHA256

    def test_old_cell_entry_loads_to_the_same_records(self, tmp_path):
        cache = CellCache(tmp_path)
        cache.path_for(CELL_KEY).write_bytes((DATA / "cell_entry.json").read_bytes())
        entry = cache.load(CELL_KEY)
        assert list(entry.records) == run_experiment(CELL_CONFIG)
        assert entry.snapshot is None

    def test_old_response_entry_loads_to_the_same_result(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.path_for(RESPONSE_KEY).write_bytes(
            (DATA / "response_entry.json").read_bytes()
        )
        request = parse_request(ITERATE_BODY)
        assert cache.load(RESPONSE_KEY) == execute_request(request)
