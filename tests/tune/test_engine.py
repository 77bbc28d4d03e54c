"""Sweep execution: digest reproducibility, dedup, halving, metrics."""

import pytest

from repro.artifacts.store import ArtifactStore
from repro.metrics import MetricsRegistry
from repro.tune.engine import SweepSettings, run_sweep
from repro.tune.space import FULL_PASS_SPEC, TuneSpace, ablated_pass_spec


@pytest.fixture(scope="module")
def store(tmp_path_factory) -> ArtifactStore:
    return ArtifactStore(tmp_path_factory.mktemp("tune-cache"))


SPACE = TuneSpace(
    workloads=("gzip",),
    pass_specs=(None, FULL_PASS_SPEC, ablated_pass_spec("cp")),
)


def test_digest_is_independent_of_jobs_and_fully_cached_on_rerun(store):
    serial = run_sweep(SPACE, SweepSettings(scale=0, jobs=1), store=store)
    parallel = run_sweep(SPACE, SweepSettings(scale=0, jobs=2), store=store)
    assert serial.digest == parallel.digest
    assert serial.records == parallel.records
    assert len(serial.records) == 3
    assert serial.cells_computed == 3 and serial.cells_cached == 0
    # The second run hit the artifact store for every cell yet folded
    # the exact same digest — dedup never changes the result.
    assert parallel.cells_cached == 3 and parallel.cells_computed == 0


def test_records_are_plan_ordered_and_canonical(store):
    result = run_sweep(SPACE, SweepSettings(scale=0), store=store)
    labels = [p["pass_spec"] for p in result.points]
    assert labels == [None, FULL_PASS_SPEC, ablated_pass_spec("cp")]
    for record, point in zip(result.records, result.points):
        assert set(record) == {"workload", "label", "point", "entry"}
        assert record["workload"] == "gzip"
        assert record["point"] == point
        assert record["entry"]["config"] == record["label"]
        assert record["entry"]["ipc_x86"] > 0


def test_random_search_digest_reproducible(store):
    settings = SweepSettings(search="random", seed=3, samples=2, scale=0)
    first = run_sweep(SPACE, settings, store=store)
    second = run_sweep(SPACE, settings, store=store)
    assert first.digest == second.digest
    assert len(first.records) == 2


def test_halving_trajectory_is_deterministic(store):
    settings = SweepSettings(search="halving", scale=0, halving_rounds=2)
    first = run_sweep(SPACE, settings, store=store)
    second = run_sweep(SPACE, settings, store=store)
    assert first.digest == second.digest
    assert first.survivors == second.survivors
    assert 1 <= len(first.survivors) < len(first.points)
    planned = {p["pass_spec"] for p in first.points}
    assert all(s["pass_spec"] in planned for s in first.survivors)


def test_sweep_counts_metrics(store):
    registry = MetricsRegistry()
    run_sweep(SPACE, SweepSettings(scale=0), store=store, metrics=registry)
    assert registry.counter("tune.sweeps").value == 1
    assert registry.counter("tune.sweep_cells").value == 3
