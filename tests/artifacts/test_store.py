"""Artifact store: keying, atomicity, corruption handling, eviction."""

from __future__ import annotations

import os
import struct
import time
from dataclasses import replace

import pytest

from repro.artifacts import store as store_mod
from repro.artifacts.runner import result_key, trace_key
from repro.artifacts.store import ArtifactStore, content_key
from repro.harness.experiment import CONFIGS
from repro.workloads import build_workload


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


@pytest.fixture(scope="module")
def vortex_trace():
    return build_workload("vortex")


# ------------------------------------------------------------------ keying


def test_content_key_is_deterministic():
    a = content_key("trace", {"x": 1, "y": [1, 2]})
    b = content_key("trace", {"y": [1, 2], "x": 1})
    assert a == b
    assert len(a) == 64


def test_key_changes_with_kind_and_material():
    material = {"x": 1}
    assert content_key("trace", material) != content_key("result", material)
    assert content_key("trace", material) != content_key("trace", {"x": 2})


def test_trace_key_varies_with_seed_and_scale():
    base = trace_key("bzip2")
    assert trace_key("bzip2", seed=2) != base
    assert trace_key("bzip2", scale=3) != base
    assert trace_key("bzip2") == base  # stable across calls


def test_result_key_config_change_is_a_miss():
    rpo = CONFIGS["RPO"]
    base = result_key("bzip2", rpo)
    assert result_key("bzip2", CONFIGS["RP"]) != base
    # Any nested config field participates in the key.
    tweaked = replace(rpo, optimizer=replace(rpo.optimizer, enable_cse=False))
    assert result_key("bzip2", tweaked) != base
    assert result_key("bzip2", rpo) == base


# ------------------------------------------------------------- round trips


def test_bytes_roundtrip(store):
    key = content_key("result", {"k": 1})
    assert store.get_bytes("result", key) is None
    store.put_bytes("result", key, b"payload", label="demo")
    assert store.get_bytes("result", key) == b"payload"
    assert store.telemetry.hits == 1 and store.telemetry.misses == 1


def test_trace_roundtrip(store, vortex_trace):
    key = trace_key("vortex")
    store.put_trace(key, vortex_trace)
    loaded = store.get_trace(key)
    assert loaded is not None
    assert loaded.records == vortex_trace.records


def test_result_roundtrip(store):
    key = content_key("result", {"cell": "demo"})
    store.put_result(key, {"ipc": 1.25}, label="demo")
    assert store.get_result(key) == {"ipc": 1.25}


def test_no_temp_files_left_behind(store):
    key = content_key("result", {"k": "t"})
    store.put_bytes("result", key, b"x" * 1024)
    leftovers = [
        p for p in store.root.rglob("*") if p.is_file() and p.name.startswith(".tmp-")
    ]
    assert leftovers == []


# ------------------------------------------------------------- corruption


def _only_entry_path(store):
    entries = list(store.entries())
    assert len(entries) == 1
    return entries[0].path


def test_corrupt_entry_quarantined_and_recomputed(store):
    key = content_key("result", {"k": "c"})
    store.put_result(key, [1, 2, 3])
    path = _only_entry_path(store)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF  # flip a payload bit
    path.write_bytes(bytes(data))

    assert store.get_result(key) is None  # miss, not an exception
    assert not path.exists()
    assert store.telemetry.corrupt == 1
    assert len(list(store.quarantine_dir.glob("*.art"))) == 1

    store.put_result(key, [1, 2, 3])  # recompute path works
    assert store.get_result(key) == [1, 2, 3]


def test_truncated_entry_quarantined(store):
    key = content_key("result", {"k": "t"})
    store.put_result(key, "hello")
    path = _only_entry_path(store)
    path.write_bytes(path.read_bytes()[:10])
    assert store.get_result(key) is None
    assert store.telemetry.corrupt == 1


def test_version_mismatch_is_a_miss_not_an_error(store):
    key = content_key("result", {"k": "v"})
    store.put_result(key, "payload")
    path = _only_entry_path(store)
    data = bytearray(path.read_bytes())
    # Patch the envelope version field (after the 4-byte magic).
    struct.pack_into("<H", data, 4, store_mod.FORMAT_VERSION + 1)
    path.write_bytes(bytes(data))

    assert store.get_result(key) is None
    assert store.telemetry.stale == 1
    assert store.telemetry.corrupt == 0
    assert not path.exists()  # stale entry dropped, not quarantined


def test_undecodable_pickle_is_a_miss(store):
    key = content_key("result", {"k": "p"})
    store.put_bytes("result", key, b"not a pickle")
    assert store.get_result(key) is None


def test_stale_codec_version_trace_is_a_miss(store, monkeypatch):
    from repro.artifacts import codec

    key = trace_key("vortex", seed=99)
    # Entry written by a "future" codec: envelope is fine, codec version isn't.
    monkeypatch.setattr(codec, "CODEC_VERSION", codec.CODEC_VERSION + 1)
    trace = build_workload("power")
    store.put_trace(key, trace)
    monkeypatch.undo()

    assert store.get_trace(key) is None  # TraceVersionError ⇒ miss
    assert store.telemetry.stale == 1


def _trace(name):
    return build_workload(name)


def test_store_treats_corrupt_trace_as_miss(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    store.put_trace("a" * 64, _trace("gzip"))
    store.put_bytes("trace", "b" * 64, b"\x1f\x8bgarbage", label="bad")
    assert store.get_trace("a" * 64) is not None
    assert store.get_trace("b" * 64) is None  # structured miss, no crash


# --------------------------------------------------------------- eviction


def test_gc_evicts_lru_to_budget(store):
    keys = [content_key("result", {"i": i}) for i in range(4)]
    now = time.time()
    for i, key in enumerate(keys):
        store.put_result(key, b"x" * 4096, label=f"entry{i}")
        path = store._entry_path("result", key)
        os.utime(path, (now - 1000 + i, now - 1000 + i))  # older = smaller i

    sizes = [e.size_bytes for e in store.entries()]
    budget = sum(sizes) - 1  # force at least one eviction
    removed, removed_bytes = store.gc(budget)
    assert removed >= 1 and removed_bytes > 0
    # Oldest entries go first; the newest survives.
    assert store.get_result(keys[-1]) is not None
    assert store.get_result(keys[0]) is None


def test_plan_gc_previews_without_deleting(store):
    keys = [content_key("result", {"i": i}) for i in range(4)]
    now = time.time()
    for i, key in enumerate(keys):
        store.put_result(key, b"x" * 4096, label=f"entry{i}")
        path = store._entry_path("result", key)
        os.utime(path, (now - 1000 + i, now - 1000 + i))

    total = sum(e.size_bytes for e in store.entries())
    budget = total - 1
    plan = store.plan_gc(budget)
    assert len(plan) >= 1
    # Plan is LRU order and nothing was touched on disk.
    assert plan[0].label == "entry0"
    assert store.stats()["entries"] == 4
    # Executing gc with the same budget evicts exactly the planned set.
    removed, removed_bytes = store.gc(budget)
    assert removed == len(plan)
    assert removed_bytes == sum(e.size_bytes for e in plan)


def test_plan_gc_empty_when_under_budget(store):
    store.put_result(content_key("result", {"i": 0}), b"x" * 128)
    assert store.plan_gc(10 * 1024 * 1024) == []


def test_budget_applies_on_write(tmp_path):
    store = ArtifactStore(tmp_path, budget_bytes=1)  # everything over budget
    for i in range(3):
        store.put_result(content_key("result", {"i": i}), b"y" * 2048)
    assert store.stats()["entries"] <= 1


def test_clear_removes_everything(store):
    for i in range(3):
        store.put_result(content_key("result", {"i": i}), i)
    assert store.clear() == 3
    assert store.stats()["entries"] == 0


# ------------------------------------------------------------------- misc


def test_env_cache_dir_override(tmp_path, monkeypatch):
    monkeypatch.setenv(store_mod.ENV_CACHE_DIR, str(tmp_path / "envcache"))
    assert ArtifactStore().root == tmp_path / "envcache"


def test_stats_shape(store, vortex_trace):
    store.put_trace(trace_key("vortex"), vortex_trace)
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["kinds"]["trace"]["entries"] == 1
    assert stats["bytes"] > 0


# --------------------------------------------------- discard/telemetry


def test_discard_failure_is_counted_and_logged(store, caplog):
    """A deletion failure must be visible: warning + counter, not pass."""
    key = content_key("result", {"victim": 1})
    path = store.put_bytes("result", key, b"payload")

    real_unlink = store_mod.Path.unlink

    def failing_unlink(self, missing_ok=False):
        if self == path:
            raise OSError("device busy")
        return real_unlink(self, missing_ok=missing_ok)

    import logging
    from unittest import mock

    with mock.patch.object(store_mod.Path, "unlink", failing_unlink):
        with caplog.at_level(logging.WARNING, logger="repro.artifacts"):
            store._discard(path)
    assert store.telemetry.discard_failed == 1
    assert any("could not discard" in r.message for r in caplog.records)


def test_discard_missing_file_is_not_a_failure(store):
    store._discard(store.root / "result" / "aa" / "gone.art")
    assert store.telemetry.discard_failed == 0


def test_stale_result_never_drives_hits_negative(store):
    """The hit-to-miss telemetry correction must clamp at zero even if
    telemetry was reset between the read and the decode."""
    key = content_key("result", {"stale": 1})
    store.put_bytes("result", key, b"not a pickle")
    store.telemetry = store_mod.StoreTelemetry()  # simulate external reset
    store.telemetry.hits = 0
    # Force the path where get_bytes's hit is missing from telemetry.
    store._reclassify_hit_as_miss()
    assert store.telemetry.hits == 0
    assert store.telemetry.misses == 1
    assert store.telemetry.stale == 1


def test_stale_result_reclassifies_hit(store):
    key = content_key("result", {"stale": 2})
    store.put_bytes("result", key, b"not a pickle")
    assert store.get_result(key) is None
    assert store.telemetry.hits == 0  # the envelope hit was taken back
    assert store.telemetry.misses == 1
    assert store.telemetry.stale == 1


def test_format_version_bump_invalidates(store):
    """v2 stores must treat v1 entries as stale misses (the documented
    invalidation path for the pickled-layout change)."""
    key = content_key("result", {"old": 1})
    path = store.put_bytes("result", key, b"x")
    data = bytearray(path.read_bytes())
    struct.pack_into("<H", data, 4, store_mod.FORMAT_VERSION - 1)
    path.write_bytes(bytes(data))
    assert store.get_bytes("result", key) is None
    assert store.telemetry.stale == 1
    assert not path.exists()  # stale entry dropped
