"""Run-ledger schema: round trip, validation, Table-3 agreement."""

from __future__ import annotations

import json

import pytest

from repro.artifacts.store import ArtifactStore
from repro.harness.figures import ResultMatrix, run_fig6
from repro.metrics import (
    LEDGER_VERSION,
    SUPPORTED_VERSIONS,
    LedgerError,
    MetricsRegistry,
    build_run_ledger,
    format_ledger,
    read_ledger,
    validate_ledger,
    write_ledger,
)

WORKLOADS = ["vortex", "power"]


@pytest.fixture(scope="module")
def fig6_matrix() -> ResultMatrix:
    matrix = ResultMatrix()
    run_fig6(matrix, workloads=WORKLOADS)
    return matrix


def _ledger(matrix: ResultMatrix, registry: MetricsRegistry | None = None) -> dict:
    return build_run_ledger(["fig6"], ["fig6"], matrix, registry=registry)


def test_ledger_round_trip(tmp_path, fig6_matrix):
    ledger = _ledger(fig6_matrix)
    path = write_ledger(tmp_path / "run.json", ledger)
    loaded = read_ledger(path)
    assert loaded == json.loads(json.dumps(ledger))  # JSON-stable
    assert loaded["version"] == LEDGER_VERSION
    assert len(loaded["results"]) == len(WORKLOADS) * 4


def test_ledger_totals_agree_with_table3_path(fig6_matrix):
    """The ledger's optimizer totals must be derived from the same
    ExperimentResult objects the Table 3 aggregation reads."""
    ledger = _ledger(fig6_matrix)
    expected_uops = expected_loads = 0
    for result in fig6_matrix._results.values():
        totals = result.optimizer_totals
        if totals is not None:
            expected_uops += totals.uops_removed
            expected_loads += totals.loads_removed
    assert ledger["optimizer_totals"]["uops_removed"] == expected_uops
    assert ledger["optimizer_totals"]["loads_removed"] == expected_loads
    assert sum(ledger["passes"].values()) > 0


def test_ledger_per_pass_changes_match_results(fig6_matrix):
    ledger = _ledger(fig6_matrix)
    expected: dict[str, int] = {}
    for result in fig6_matrix._results.values():
        totals = result.optimizer_totals
        if totals is None:
            continue
        for name, changes in totals.changes_by_pass.items():
            expected[name] = expected.get(name, 0) + changes
    assert ledger["passes"] == expected


def test_ledger_includes_registry_snapshot(fig6_matrix):
    registry = MetricsRegistry()
    registry.counter("sim.cycles").inc(123)
    ledger = _ledger(fig6_matrix, registry=registry)
    assert ledger["metrics"]["counters"]["sim.cycles"] == 123


def test_validate_rejects_missing_keys(fig6_matrix):
    ledger = _ledger(fig6_matrix)
    del ledger["results"]
    with pytest.raises(LedgerError, match="missing key 'results'"):
        validate_ledger(ledger)


def test_validate_rejects_wrong_types(fig6_matrix):
    ledger = _ledger(fig6_matrix)
    ledger["cells"][0]["seconds"] = "fast"
    with pytest.raises(LedgerError, match="seconds"):
        validate_ledger(ledger)


def test_validate_rejects_unknown_version(fig6_matrix):
    ledger = _ledger(fig6_matrix)
    ledger["version"] = max(SUPPORTED_VERSIONS) + 1
    with pytest.raises(LedgerError, match="version"):
        validate_ledger(ledger)


def test_write_refuses_invalid_ledger(tmp_path):
    with pytest.raises(LedgerError):
        write_ledger(tmp_path / "bad.json", {"schema": "nope"})
    assert not (tmp_path / "bad.json").exists()


def test_read_rejects_non_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(LedgerError, match="not valid JSON"):
        read_ledger(path)


def test_format_ledger_renders(fig6_matrix):
    registry = MetricsRegistry()
    registry.counter("sim.runs").inc(8)
    registry.histogram("time.simulate").observe(0.5)
    text = format_ledger(_ledger(fig6_matrix, registry=registry))
    assert "run ledger v1" in text
    assert "hottest cells" in text
    assert "sim.runs" in text
    assert "time.simulate" in text


def test_warm_ledger_identical_totals(tmp_path):
    """A fully cached run must ledger the same totals as the cold run."""
    store = ArtifactStore(tmp_path)
    cold_matrix = ResultMatrix(store=store)
    run_fig6(cold_matrix, workloads=["power"])
    cold = _ledger(cold_matrix)

    warm_matrix = ResultMatrix(store=ArtifactStore(tmp_path))
    run_fig6(warm_matrix, workloads=["power"])
    warm = _ledger(warm_matrix)

    assert warm_matrix.results_computed == 0
    assert cold["optimizer_totals"] == warm["optimizer_totals"]
    assert cold["passes"] == warm["passes"]
    assert cold["results"] == warm["results"]
