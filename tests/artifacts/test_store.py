"""Artifact store: keying, atomicity, corruption handling, inventory."""

from __future__ import annotations

import logging
import struct
from dataclasses import replace

import pytest

from repro.artifacts import store as store_mod
from repro.artifacts.runner import result_key, trace_key
from repro.artifacts.store import ArtifactStore, content_key
from repro.harness.experiment import CONFIGS
from repro.harness.figures import ResultMatrix
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


def test_same_entry_written_twice_is_byte_identical(tmp_path, vortex_trace):
    """An entry's bytes depend only on what is stored, never on when."""
    first, second = ArtifactStore(tmp_path / "a"), ArtifactStore(tmp_path / "b")
    key = content_key("result", {"k": "same"})
    written = []
    for store in (first, second, first):
        written.append((
            store.put_bytes("result", key, b"payload", label="demo").read_bytes(),
            store.put_result(key, {"ipc": 1.25}, label="demo").read_bytes(),
            store.put_trace(trace_key("vortex"), vortex_trace).read_bytes(),
        ))
    assert written[0] == written[1] == written[2]


def test_no_temp_files_left_behind(store):
    key = content_key("result", {"k": "t"})
    store.put_bytes("result", key, b"x" * 1024)
    leftovers = [
        p for p in store.root.rglob("*") if p.is_file() and p.name.startswith(".tmp-")
    ]
    assert leftovers == []


# ------------------------------------------------------------- corruption


def _assert_dropped(store, path):
    """A bad entry is deleted and nothing is kept aside."""
    assert not path.exists()
    assert not (store.root / "quarantine").exists()


def test_corrupt_entry_deleted_and_recomputed(store):
    key = content_key("result", {"k": "c"})
    path = store.put_result(key, [1, 2, 3])
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF  # flip a payload bit
    path.write_bytes(bytes(data))

    assert store.get_result(key) is None  # miss, not an exception
    _assert_dropped(store, path)

    store.put_result(key, [1, 2, 3])  # recompute path works
    assert store.get_result(key) == [1, 2, 3]


def test_truncated_entry_deleted(store):
    key = content_key("result", {"k": "t"})
    path = store.put_result(key, "hello")
    path.write_bytes(path.read_bytes()[:10])
    assert store.get_result(key) is None
    _assert_dropped(store, path)


def test_bad_magic_entry_deleted(store, caplog):
    key = content_key("result", {"k": "m"})
    path = store.put_result(key, "hello")
    path.write_bytes(b"NOPE" + path.read_bytes()[4:])
    with caplog.at_level(logging.WARNING, logger="repro.artifacts"):
        assert store.get_result(key) is None
    _assert_dropped(store, path)
    assert any("bad magic" in r.message for r in caplog.records)


def test_version_mismatch_is_a_miss_not_an_error(store):
    key = content_key("result", {"k": "v"})
    path = store.put_result(key, "payload")
    data = bytearray(path.read_bytes())
    # Patch the envelope version field (after the 4-byte magic).
    struct.pack_into("<H", data, 4, store_mod.FORMAT_VERSION + 1)
    path.write_bytes(bytes(data))

    assert store.get_result(key) is None
    _assert_dropped(store, path)


def test_undecodable_pickle_is_a_miss(store):
    key = content_key("result", {"k": "p"})
    path = store.put_bytes("result", key, b"not a pickle")
    assert store.get_result(key) is None
    _assert_dropped(store, path)


def test_stale_result_reclassifies_hit(store):
    """An envelope that verifies but holds a stale result is a miss: the
    store drops it, and the cell reports a recompute, not a cache hit."""
    config = CONFIGS["RP"]
    key = result_key("gzip", config)
    path = store.put_bytes("result", key, b"not a pickle")
    assert store.get_bytes("result", key) == b"not a pickle"  # envelope hit
    assert store.get_result(key) is None
    _assert_dropped(store, path)
    assert store.get_bytes("result", key) is None  # later reads miss too

    store.put_bytes("result", key, b"not a pickle")
    matrix = ResultMatrix(store=store)
    matrix.run("gzip", config)
    (telemetry,) = matrix.telemetry
    assert not telemetry.result_cache_hit
    assert telemetry.simulated
    assert store.get_result(key) is not None  # recomputed and stored


def test_stale_codec_version_trace_is_a_miss(store, monkeypatch):
    from repro.artifacts import codec

    key = trace_key("vortex", seed=99)
    # Entry written by a "future" codec: envelope is fine, codec version isn't.
    monkeypatch.setattr(codec, "CODEC_VERSION", codec.CODEC_VERSION + 1)
    trace = build_workload("power")
    path = store.put_trace(key, trace)
    monkeypatch.undo()

    assert store.get_trace(key) is None  # TraceVersionError ⇒ miss
    _assert_dropped(store, path)


def _trace(name):
    return build_workload(name)


def test_store_treats_corrupt_trace_as_miss(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    store.put_trace("a" * 64, _trace("gzip"))
    store.put_bytes("trace", "b" * 64, b"\x1f\x8bgarbage", label="bad")
    assert store.get_trace("a" * 64) is not None
    assert store.get_trace("b" * 64) is None  # structured miss, no crash


# -------------------------------------------------------------- inventory


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
    path = store.put_trace(trace_key("vortex"), vortex_trace)
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["kinds"]["trace"]["entries"] == 1
    assert stats["bytes"] == stats["kinds"]["trace"]["bytes"] == path.stat().st_size
    assert set(stats) == {"root", "kinds", "entries", "bytes"}


def test_stats_reads_no_entry(store, monkeypatch):
    for i in range(3):
        store.put_result(content_key("result", {"i": i}), i)

    def no_reads(self):
        raise AssertionError(f"stats read {self}")

    monkeypatch.setattr(store_mod.Path, "read_bytes", no_reads)
    assert store.stats()["kinds"]["result"]["entries"] == 3


def test_listing_one_kind_in_key_order(store):
    keys = sorted(content_key("fuzz", {"i": i}) for i in range(3))
    for i, key in enumerate(reversed(keys)):
        store.put_bytes("fuzz", key, b"x" * i, label=f"case{i}")
    store.put_result(content_key("result", {"i": 0}), 0)
    broken = store.put_bytes("fuzz", "f" * 64, b"")
    broken.write_bytes(b"garbage")  # envelope does not parse: left out

    listed = store.listing("fuzz")
    assert [key for key, _size, _label in listed] == keys
    assert [label for _key, _size, label in listed] == ["case2", "case1", "case0"]
    for key, size, _label in listed:
        assert size == store._entry_path("fuzz", key).stat().st_size
    assert store.listing("trace") == []


# ---------------------------------------------------------------- discard


def test_discard_failure_is_logged(store, caplog):
    """A deletion failure must be visible: a warning, not a pass."""
    key = content_key("result", {"victim": 1})
    path = store.put_bytes("result", key, b"payload")

    real_unlink = store_mod.Path.unlink

    def failing_unlink(self, missing_ok=False):
        if self == path:
            raise OSError("device busy")
        return real_unlink(self, missing_ok=missing_ok)

    from unittest import mock

    with mock.patch.object(store_mod.Path, "unlink", failing_unlink):
        with caplog.at_level(logging.WARNING, logger="repro.artifacts"):
            store._discard(path)
    assert any("could not discard" in r.message for r in caplog.records)


def test_discard_missing_file_is_not_a_failure(store, caplog):
    with caplog.at_level(logging.WARNING, logger="repro.artifacts"):
        store._discard(store.root / "result" / "aa" / "gone.art")
    assert caplog.records == []


def test_format_version_bump_invalidates(store):
    """v2 stores must treat v1 entries as stale misses (the documented
    invalidation path for the pickled-layout change)."""
    key = content_key("result", {"old": 1})
    path = store.put_bytes("result", key, b"x")
    data = bytearray(path.read_bytes())
    struct.pack_into("<H", data, 4, store_mod.FORMAT_VERSION - 1)
    path.write_bytes(bytes(data))
    assert store.get_bytes("result", key) is None
    _assert_dropped(store, path)
