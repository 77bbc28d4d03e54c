"""Workload registry and trace sanity for all fourteen benchmarks."""

import pytest

from collections import Counter

from repro.workloads import (
    WorkloadError,
    all_workloads,
    build_workload,
    get_workload,
)


def test_fourteen_workloads_registered():
    workloads = all_workloads()
    assert len(workloads) == 14
    categories = Counter(w.category for w in workloads)
    assert categories["SPECint"] == 7
    assert categories["Business"] + categories["Content"] == 7


def test_paper_names_present():
    names = {w.name for w in all_workloads()}
    assert names == {
        "bzip2", "crafty", "eon", "gzip", "parser", "twolf", "vortex",
        "access", "dream", "excel", "lotus", "photo", "power", "sound",
    }


def test_unknown_workload_raises():
    with pytest.raises(KeyError, match="unknown workload"):
        get_workload("doom")


def test_budget_overrun_names_workload_scale_and_budget():
    with pytest.raises(WorkloadError) as excinfo:
        build_workload("gzip", scale=3, max_instructions=100)
    error = excinfo.value
    assert (error.workload, error.scale, error.budget) == ("gzip", 3, 100)
    assert str(error) == (
        "workload 'gzip' at scale 3 did not finish within its emulation "
        "budget of 100 instructions; lower its scale"
    )


def test_paper_reference_numbers_recorded():
    bzip2 = get_workload("bzip2")
    assert bzip2.paper_uop_reduction == pytest.approx(0.23)
    assert bzip2.paper_load_reduction == pytest.approx(0.30)
    assert bzip2.paper_ipc_gain == pytest.approx(0.28)


def test_workload_determinism():
    first = build_workload("twolf", seed=3)
    second = build_workload("twolf", seed=3)
    assert len(first) == len(second)
    assert all(
        a.pc == b.pc and a.reg_writes == b.reg_writes
        for a, b in zip(first.records, second.records)
    )


def test_seed_changes_data_not_structure():
    first = build_workload("parser", seed=1)
    second = build_workload("parser", seed=2)
    # Different data -> different dynamic paths, same static program shape.
    assert first.stats().unique_pcs == second.stats().unique_pcs


@pytest.mark.parametrize("workload", [w.name for w in all_workloads()])
def test_every_workload_builds_and_terminates(workload):
    trace = build_workload(workload)
    stats = trace.stats()
    assert 5_000 <= stats.x86_instructions <= 120_000
    assert stats.loads > 0
    assert stats.conditional_branches > 0


def test_scale_grows_trace():
    small = build_workload("lotus", scale=1)
    large = build_workload("lotus", scale=2)
    assert len(large) > 1.5 * len(small)
