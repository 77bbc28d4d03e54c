"""Parallel runner: serial/parallel equality, caching, harness integration."""

from __future__ import annotations

import pytest

from repro.artifacts import runner
from repro.artifacts.runner import MatrixTask, MatrixTaskError, run_matrix
from repro.artifacts.store import ArtifactStore
from repro.harness import report
from repro.harness.experiment import CONFIGS
from repro.harness.figures import ResultMatrix, run_fig6
from repro.metrics import MetricsRegistry

#: Small, fast workloads — the matrix shape is what's under test.
WORKLOADS = ["vortex", "power"]
TASKS = [
    MatrixTask(workload, CONFIGS[config])
    for workload in WORKLOADS
    for config in ("IC", "RP")
]


def _fingerprint(result):
    return (
        result.workload,
        result.config_name,
        result.ipc_x86,
        result.sim.cycles,
        dict(result.sim.bins),
    )


def test_serial_run_matrix_order_and_results():
    run = run_matrix(TASKS, jobs=1)
    assert [(t.workload, t.config_name) for t in run.telemetry] == [
        (task.workload, task.config.name) for task in TASKS
    ]
    assert all(t.simulated for t in run.telemetry)
    assert all(not t.result_cache_hit for t in run.telemetry)
    assert run.jobs == 1


def test_parallel_equals_serial():
    serial = run_matrix(TASKS, jobs=1)
    parallel = run_matrix(TASKS, jobs=2)
    assert [_fingerprint(r) for r in parallel.results] == [
        _fingerprint(r) for r in serial.results
    ]
    # Deterministic ordering: results align with input tasks.
    for task, result in zip(parallel.tasks, parallel.results):
        assert result.workload == task.workload
        assert result.config_name == task.config.name


def test_warm_store_serves_everything(tmp_path):
    store = ArtifactStore(tmp_path)
    cold = run_matrix(TASKS, jobs=1, store=store)
    warm = run_matrix(TASKS, jobs=1, store=store)
    assert all(t.result_cache_hit for t in warm.telemetry)
    assert not any(t.emulated for t in warm.telemetry)
    assert not any(t.simulated for t in warm.telemetry)
    assert [_fingerprint(r) for r in warm.results] == [
        _fingerprint(r) for r in cold.results
    ]


def test_parallel_warm_store(tmp_path):
    store = ArtifactStore(tmp_path)
    cold = run_matrix(TASKS, jobs=2, store=store)
    warm = run_matrix(TASKS, jobs=2, store=store)
    assert all(t.result_cache_hit for t in warm.telemetry)
    assert [_fingerprint(r) for r in warm.results] == [
        _fingerprint(r) for r in cold.results
    ]


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
    run = run_matrix(TASKS, jobs=2)
    assert sum(t.emulated for t in run.telemetry) == len(WORKLOADS) == 2
    assert [(t.workload, t.config_name) for t in run.telemetry] == [
        (task.workload, task.config.name) for task in TASKS
    ]


def test_jobs_clamped_to_task_count():
    run = run_matrix(TASKS[:1], jobs=8)
    assert run.jobs == 1  # one task: runs serially in-process


# ------------------------------------------------------- error handling

#: A task whose worker raises (unknown workload -> KeyError inside the
#: cell computation, not in pool infrastructure).
BAD_TASK = MatrixTask("no-such-workload", CONFIGS["IC"])


@pytest.mark.parametrize("jobs", [1, 2])
def test_task_error_raises_matrix_task_error(jobs):
    """A failing cell must surface its own error, labelled, immediately —
    never be misread as a broken pool and re-run serially."""
    with pytest.raises(MatrixTaskError) as excinfo:
        run_matrix([TASKS[0], BAD_TASK], jobs=jobs)
    error = excinfo.value
    assert error.workload == "no-such-workload"
    assert error.config_name == "IC"
    assert "no-such-workload/IC" in str(error)
    assert isinstance(error.__cause__, KeyError)  # original chained


def test_task_error_does_not_count_pool_fallback():
    registry = MetricsRegistry()
    with pytest.raises(MatrixTaskError):
        run_matrix([BAD_TASK], jobs=2, metrics=registry)
    assert "runner.pool_fallbacks" not in registry.counters()


# ------------------------------------------------- cross-worker metrics


def _deterministic(counters: dict) -> dict:
    """Counter totals that must not depend on worker/process scheduling.

    Emulation counters legitimately differ (each pool worker keeps its
    own trace memo); everything a simulation itself measures must not.
    """
    return {
        name: value
        for name, value in counters.items()
        if not name.startswith("emulator.")
    }


def test_parallel_metrics_merge_equals_serial():
    serial_reg = MetricsRegistry()
    parallel_reg = MetricsRegistry()
    run_matrix(TASKS, jobs=1, metrics=serial_reg)
    run_matrix(TASKS, jobs=2, metrics=parallel_reg)
    serial = _deterministic(serial_reg.counters())
    parallel = _deterministic(parallel_reg.counters())
    assert serial == parallel
    assert serial["sim.runs"] == len(TASKS)
    assert serial["sim.cycles"] > 0


def test_fig6_parallel_metrics_merge_equals_serial():
    """The satellite acceptance case: a fig6-shaped matrix aggregates
    identical deterministic counter totals under jobs=1 and jobs=2."""
    tasks = [
        MatrixTask(workload, CONFIGS[config])
        for workload in WORKLOADS
        for config in ("IC", "TC", "RP", "RPO")
    ]
    serial_reg = MetricsRegistry()
    parallel_reg = MetricsRegistry()
    run_matrix(tasks, jobs=1, metrics=serial_reg)
    run_matrix(tasks, jobs=2, metrics=parallel_reg)
    assert _deterministic(serial_reg.counters()) == _deterministic(
        parallel_reg.counters()
    )
    # The optimizer pass counters flowed through worker snapshots.
    assert serial_reg.counters()["optimizer.pass.dce.changes"] > 0


def _provenance(run):
    return [
        (t.workload, t.config_name, t.result_cache_hit, t.trace_cache_hit,
         t.emulated, t.simulated)
        for t in run.telemetry
    ]


def test_warm_cache_accounting_same_under_any_jobs(tmp_path):
    """Each cell ships its cache accounting back in its TaskTelemetry, so
    a warm run at jobs=2 reports a result hit for every task, exactly as
    jobs=1 does."""
    store = ArtifactStore(tmp_path)
    run_matrix(TASKS, jobs=2, store=store)
    serial = run_matrix(TASKS, jobs=1, store=store)
    parallel = run_matrix(TASKS, jobs=2, store=store)
    assert parallel.jobs == 2
    assert all(t.result_cache_hit for t in parallel.telemetry)
    assert _provenance(parallel) == _provenance(serial)
