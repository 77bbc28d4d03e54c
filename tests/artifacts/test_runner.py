"""The experiment matrix over the runner: serial/parallel equality,
caching, cell errors, cross-worker metrics, and the runner's own seams."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.artifacts import runner
from repro.artifacts.runner import MatrixTaskError
from repro.artifacts.store import ArtifactStore
from repro.harness import figures, report
from repro.harness.experiment import CONFIGS
from repro.harness.figures import ResultMatrix, run_fig6
from repro.metrics import get_registry

#: Small, fast workloads — the matrix shape is what's under test.
WORKLOADS = ["vortex", "power"]
#: Interleaved, so pair order differs from the per-trace payload order.
PAIRS = [
    (workload, CONFIGS[config])
    for config in ("IC", "RP")
    for workload in WORKLOADS
]


def _resolve(pairs=PAIRS, **options) -> ResultMatrix:
    matrix = ResultMatrix(**options)
    matrix.ensure(pairs)
    return matrix


def _fingerprint(result):
    return (
        result.workload,
        result.config_name,
        result.ipc_x86,
        result.sim.cycles,
        dict(result.sim.bins),
    )


def _results(matrix: ResultMatrix, pairs=PAIRS) -> list:
    return [_fingerprint(matrix.run(workload, config)) for workload, config in pairs]


def _cells(matrix: ResultMatrix) -> list[tuple[str, str]]:
    return [(t.workload, t.config_name) for t in matrix.telemetry]


def _effective_jobs() -> float:
    return get_registry().gauge("runner.effective_jobs").value


def test_serial_run_matrix_order_and_results():
    matrix = _resolve(jobs=1)
    assert _cells(matrix) == [(w, config.name) for w, config in PAIRS]
    assert all(t.simulated for t in matrix.telemetry)
    assert all(not t.result_cache_hit for t in matrix.telemetry)
    assert _effective_jobs() == 1


def test_parallel_equals_serial():
    serial = _resolve(jobs=1)
    parallel = _resolve(jobs=2)
    assert _effective_jobs() == 2
    assert _results(parallel) == _results(serial)
    # Deterministic ordering: telemetry follows the pairs, not the payloads.
    assert _cells(parallel) == _cells(serial)


def test_warm_store_serves_everything(tmp_path):
    store = ArtifactStore(tmp_path)
    cold = _resolve(jobs=1, store=store)
    warm = _resolve(jobs=1, store=store)
    assert all(t.result_cache_hit for t in warm.telemetry)
    assert not any(t.emulated for t in warm.telemetry)
    assert not any(t.simulated for t in warm.telemetry)
    assert _results(warm) == _results(cold)


def test_parallel_warm_store(tmp_path):
    store = ArtifactStore(tmp_path)
    cold = _resolve(jobs=2, store=store)
    warm = _resolve(jobs=2, store=store)
    assert all(t.result_cache_hit for t in warm.telemetry)
    assert _results(warm) == _results(cold)


def test_result_matrix_warm_run_zero_emulation(tmp_path):
    store = ArtifactStore(tmp_path)
    cold_matrix = ResultMatrix(store=store)
    cold_table = report.format_fig6(run_fig6(cold_matrix, workloads=WORKLOADS))

    warm_matrix = ResultMatrix(store=ArtifactStore(tmp_path))
    warm_table = report.format_fig6(run_fig6(warm_matrix, workloads=WORKLOADS))

    assert warm_table == cold_table
    assert warm_matrix.traces_emulated == 0
    assert warm_matrix.results_computed == 0
    assert warm_matrix.results_cached == len(WORKLOADS) * 4
    assert "cached" in warm_matrix.summary()


def test_result_matrix_no_store_matches_store(tmp_path):
    plain = report.format_fig6(run_fig6(ResultMatrix(), workloads=["power"]))
    stored = report.format_fig6(
        run_fig6(ResultMatrix(store=ArtifactStore(tmp_path)), workloads=["power"])
    )
    assert plain == stored


def test_matrix_ensure_deduplicates():
    matrix = ResultMatrix()
    pairs = [("power", CONFIGS["IC"])] * 3
    matrix.ensure(pairs)
    assert len(matrix.telemetry) == 1


def test_parallel_cold_run_emulates_each_trace_once(monkeypatch):
    """The cells of one trace go to one worker, so two pool workers never
    emulate the same trace.  (A pool that falls back to serial also
    emulates each once.)"""
    monkeypatch.setattr(runner, "_TRACE_MEMO", {})  # inherited by the workers
    matrix = _resolve(jobs=2)
    assert matrix.traces_emulated == len(WORKLOADS) == 2
    assert _cells(matrix) == [(w, config.name) for w, config in PAIRS]


def test_jobs_clamped_to_task_count():
    _resolve(PAIRS[::2], jobs=8)  # both configs of one trace: one payload
    assert _effective_jobs() == 1  # runs serially in-process


# ------------------------------------------------------- error handling

#: A cell whose worker raises (unknown workload -> KeyError inside the
#: cell computation, not in pool infrastructure).
BAD_PAIR = ("no-such-workload", CONFIGS["IC"])


@pytest.mark.parametrize("jobs", [1, 2])
def test_task_error_raises_matrix_task_error(jobs):
    """A failing cell must surface its own error, labelled, immediately —
    never be misread as a broken pool and re-run serially."""
    with pytest.raises(MatrixTaskError) as excinfo:
        _resolve([PAIRS[0], BAD_PAIR], jobs=jobs)
    error = excinfo.value
    assert error.workload == "no-such-workload"
    assert error.config_name == "IC"
    assert "no-such-workload/IC" in str(error)
    assert isinstance(error.__cause__, KeyError)  # original chained


@pytest.mark.parametrize("jobs", [1, 2])
def test_task_error_names_the_failing_config(monkeypatch, jobs):
    """A trace's payload holds several cells; the error names the one
    that failed, not the payload's first."""
    simulate = figures.run_experiment

    def fail_rp(trace, config, **options):
        if config.name == "RP":
            raise ValueError("RP cell failed")
        return simulate(trace, config, **options)

    monkeypatch.setattr(figures, "run_experiment", fail_rp)  # forked workers too
    with pytest.raises(MatrixTaskError) as excinfo:
        _resolve(jobs=jobs)
    assert (excinfo.value.workload, excinfo.value.config_name) in {
        (workload, "RP") for workload in WORKLOADS
    }
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_task_error_does_not_count_pool_fallback():
    before = get_registry().counters().get("runner.pool_fallbacks", 0)
    with pytest.raises(MatrixTaskError):
        _resolve([PAIRS[0], BAD_PAIR], jobs=2)  # two traces: the pool runs
    assert get_registry().counters().get("runner.pool_fallbacks", 0) == before


# ------------------------------------------------- cross-worker metrics


def _deterministic_counts(pairs, jobs: int) -> dict:
    """The counter totals one resolution adds to the process-global
    registry, except those that may depend on worker scheduling.

    Emulation counters legitimately differ (each pool worker keeps its
    own trace memo); everything a simulation itself measures must not.
    """
    before = get_registry().counters()
    _resolve(pairs, jobs=jobs)
    return {
        name: value - before.get(name, 0)
        for name, value in get_registry().counters().items()
        if not name.startswith("emulator.") and value != before.get(name, 0)
    }


def test_parallel_metrics_merge_equals_serial():
    serial = _deterministic_counts(PAIRS, jobs=1)
    parallel = _deterministic_counts(PAIRS, jobs=2)
    assert serial == parallel
    assert serial["sim.runs"] == serial["runner.cells"] == len(PAIRS)
    assert serial["sim.cycles"] > 0


def test_fig6_parallel_metrics_merge_equals_serial():
    """A fig6-shaped matrix aggregates identical deterministic counter
    totals under jobs=1 and jobs=2."""
    pairs = [
        (workload, CONFIGS[config])
        for workload in WORKLOADS
        for config in ("IC", "TC", "RP", "RPO")
    ]
    serial = _deterministic_counts(pairs, jobs=1)
    assert serial == _deterministic_counts(pairs, jobs=2)
    # The optimizer pass counters flowed through worker snapshots.
    assert serial["optimizer.pass.dce.changes"] > 0


def _provenance(matrix: ResultMatrix) -> list:
    return [
        (t.workload, t.config_name, t.result_cache_hit, t.trace_cache_hit,
         t.emulated, t.simulated)
        for t in matrix.telemetry
    ]


def test_warm_cache_accounting_same_under_any_jobs(tmp_path):
    """Each cell ships its cache accounting back in its TaskTelemetry, so
    a warm run at jobs=2 reports a result hit for every cell, exactly as
    jobs=1 does."""
    store = ArtifactStore(tmp_path)
    _resolve(jobs=2, store=store)
    serial = _resolve(jobs=1, store=store)
    parallel = _resolve(jobs=2, store=store)
    assert _effective_jobs() == 2
    assert all(t.result_cache_hit for t in parallel.telemetry)
    assert _provenance(parallel) == _provenance(serial)


# ------------------------------------------------------ the runner alone


def test_trace_is_emulated_with_the_keyed_budget(monkeypatch):
    """The budget a trace key names is the one emulation runs with."""
    budgets = []
    build = runner.build_workload

    def recording_build(name, **options):
        budgets.append(options["max_instructions"])
        return build(name, **options)

    monkeypatch.setattr(runner, "_TRACE_MEMO", {})
    monkeypatch.setattr(runner, "MAX_INSTRUCTIONS", 300_000)
    monkeypatch.setattr(runner, "build_workload", recording_build)
    runner.compute_trace("power")
    assert budgets == [runner.trace_key_material("power")["max_instructions"]]
    assert budgets == [300_000]


def test_runner_imports_no_harness_module():
    """The runner is a layer below the harness: importing it in a fresh
    interpreter loads no ``repro.harness`` module."""
    probe = (
        "import sys, repro.artifacts.runner; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.harness')))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"
