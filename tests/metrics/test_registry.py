"""MetricsRegistry: instruments, snapshots, and merge algebra."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.metrics import MetricsRegistry, get_registry
from repro.metrics.registry import SNAPSHOT_VERSION


def test_counter_inc_and_default_step():
    reg = MetricsRegistry()
    reg.counter("a").inc()
    reg.counter("a").inc(4)
    assert reg.counters()["a"] == 5


def test_counter_identity_per_name():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    assert reg.counter("x") is not reg.counter("y")


def test_gauge_last_write_wins():
    reg = MetricsRegistry()
    reg.gauge("depth").set(3)
    reg.gauge("depth").set(7)
    assert reg.snapshot()["gauges"]["depth"] == 7


def test_histogram_stats():
    reg = MetricsRegistry()
    for value in (1.0, 2.0, 6.0):
        reg.histogram("h").observe(value)
    data = reg.snapshot()["histograms"]["h"]
    assert data["count"] == 3
    assert data["sum"] == pytest.approx(9.0)
    assert data["min"] == pytest.approx(1.0)
    assert data["max"] == pytest.approx(6.0)


def test_timer_observes_elapsed_seconds():
    reg = MetricsRegistry()
    with reg.timer("t"):
        pass
    data = reg.snapshot()["histograms"]["t"]
    assert data["count"] == 1
    assert data["min"] >= 0.0


def test_snapshot_is_picklable_and_detached():
    reg = MetricsRegistry()
    reg.counter("c").inc(2)
    snap = pickle.loads(pickle.dumps(reg.snapshot()))
    assert snap["version"] == SNAPSHOT_VERSION
    assert set(snap) == {"version", "counters", "gauges", "histograms"}
    assert snap["counters"]["c"] == 2
    reg.counter("c").inc()
    assert snap["counters"]["c"] == 2  # detached copy


def test_merge_counters_add_and_histograms_combine():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.counter("c").inc(2)
    b.counter("c").inc(3)
    b.counter("only_b").inc()
    a.histogram("h").observe(1.0)
    b.histogram("h").observe(5.0)
    a.merge(b.snapshot())
    snap = a.snapshot()
    assert snap["counters"]["c"] == 5
    assert snap["counters"]["only_b"] == 1
    h = snap["histograms"]["h"]
    assert (h["count"], h["min"], h["max"]) == (2, 1.0, 5.0)


def test_merge_accepts_registry_and_snapshot():
    a = MetricsRegistry()
    b = MetricsRegistry()
    b.counter("c").inc()
    a.merge(b)
    a.merge(b.snapshot())
    assert a.counters()["c"] == 2


def test_clear_resets_everything():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.gauge("g").set(1)
    reg.histogram("h").observe(1.0)
    reg.clear()
    snap = reg.snapshot()
    assert snap["counters"] == {}
    assert snap["gauges"] == {}
    assert snap["histograms"] == {}


def test_global_registry_singleton():
    assert get_registry() is get_registry()


# ------------------------------------------------------- merge algebra

_counter_maps = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]),
    st.integers(min_value=0, max_value=1_000_000),
    max_size=4,
)


def _registry_from(counts: dict[str, int]) -> MetricsRegistry:
    reg = MetricsRegistry()
    for name, value in counts.items():
        reg.counter(name).inc(value)
    return reg


@given(_counter_maps, _counter_maps, _counter_maps)
def test_merge_is_associative_and_commutative(x, y, z):
    """Worker-snapshot merging must not depend on completion order.

    ResultMatrix.ensure merges per-cell snapshots in pair order, but the
    property guarantees any order gives the same totals — the foundation of the
    serial == parallel metric-equality contract.
    """
    left = _registry_from(x)
    left.merge(_registry_from(y).snapshot())
    left.merge(_registry_from(z).snapshot())

    right = _registry_from(z)
    right.merge(_registry_from(y).snapshot())
    right.merge(_registry_from(x).snapshot())

    inner = _registry_from(y)
    inner.merge(_registry_from(z).snapshot())
    grouped = _registry_from(x)
    grouped.merge(inner.snapshot())

    assert left.counters() == right.counters() == grouped.counters()
