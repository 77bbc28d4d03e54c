"""Parallel experiment runner: fan the workload × config matrix out.

Every figure of the paper is a (workload, configuration) matrix whose
cells are independent simulations.  This runner executes those cells
through the artifact store (so warm runs do zero emulation) and, when
``jobs > 1``, across a :class:`concurrent.futures.ProcessPoolExecutor`
with deterministic result ordering — results come back in task order no
matter which worker finishes first, so parallel and serial runs produce
identical tables.

Cache keying (see :func:`trace_key_material` / :func:`result_key_material`):
a trace is addressed by the SHA-256 of the workload's *source code*,
scale, seed, and instruction budget; a result additionally mixes in every
field of the :class:`ExperimentConfig` (nested dataclasses included) and
the store format version.  Changing any input — editing a workload,
flipping an optimizer pass, resizing a cache — changes the key and forces
a recompute; nothing is ever served stale.
"""

from __future__ import annotations

import hashlib
import inspect
import logging
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pickle import PicklingError
from typing import TYPE_CHECKING

from repro.artifacts.store import ArtifactStore, content_key
from repro.metrics import MetricsRegistry, get_registry
from repro.trace.stream import DynamicTrace
from repro.workloads import build_workload, get_workload

if TYPE_CHECKING:  # imported lazily at runtime (harness imports us back)
    from repro.harness.experiment import ExperimentConfig, ExperimentResult

log = logging.getLogger("repro.artifacts")

#: Default emulation budget (mirrors ``build_workload``'s default).
MAX_INSTRUCTIONS = 400_000


class TaskError(RuntimeError):
    """A task's own computation failed.

    Distinct from pool-infrastructure trouble on purpose: a bug in a
    workload or pass must surface immediately with its original
    traceback (chained via ``__cause__``), never trigger the
    degrade-to-serial path that would re-run every cell just to hit the
    same error minutes later.
    """

    def __init__(self, label: str, original: BaseException):
        self.label = label
        super().__init__(
            f"{label} failed: {type(original).__name__}: {original}"
        )


class MatrixTaskError(TaskError):
    """A matrix cell's own computation failed."""

    def __init__(self, workload: str, config_name: str, original: BaseException):
        self.workload = workload
        self.config_name = config_name
        super().__init__(f"matrix cell {workload}/{config_name}", original)


# ------------------------------------------------------------------ keying


def _workload_source_digest(name: str) -> str:
    """SHA-256 of the workload's defining module source.

    Editing a workload program invalidates its cached trace (and every
    result derived from it).  Falls back to the repro package version
    when source is unavailable (zipapp, frozen).
    """
    module = sys.modules.get(get_workload(name).build.__module__)
    try:
        source = inspect.getsource(module)
    except (OSError, TypeError):
        import repro

        source = f"repro=={getattr(repro, '__version__', 'unknown')}"
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def trace_key_material(name: str, scale: int | None = None, seed: int = 1) -> dict:
    workload = get_workload(name)
    return {
        "workload": name,
        "source": _workload_source_digest(name),
        "scale": scale if scale is not None else workload.default_scale,
        "seed": seed,
        "max_instructions": MAX_INSTRUCTIONS,
    }


def trace_key(name: str, scale: int | None = None, seed: int = 1) -> str:
    return content_key("trace", trace_key_material(name, scale, seed))


def result_key_material(
    name: str,
    config: ExperimentConfig,
    scale: int | None = None,
    seed: int = 1,
) -> dict:
    return {
        "trace": trace_key_material(name, scale, seed),
        "config": config.fingerprint(),
    }


def result_key(
    name: str,
    config: ExperimentConfig,
    scale: int | None = None,
    seed: int = 1,
) -> str:
    return content_key("result", result_key_material(name, config, scale, seed))


# ------------------------------------------------------------------- tasks


@dataclass(frozen=True)
class MatrixTask:
    """One cell of the workload × configuration matrix."""

    workload: str
    config: ExperimentConfig
    scale: int | None = None
    seed: int = 1


@dataclass
class TaskTelemetry:
    """What one cell cost and where its pieces came from."""

    workload: str
    config_name: str
    seconds: float = 0.0
    result_cache_hit: bool = False
    trace_cache_hit: bool = False
    emulated: bool = False
    simulated: bool = False
    worker_pid: int = 0


@dataclass
class MatrixRun:
    """Results in task order plus per-task telemetry."""

    tasks: list[MatrixTask]
    results: list[ExperimentResult]
    telemetry: list[TaskTelemetry]
    jobs: int = 1
    seconds: float = 0.0


#: In-process trace memo so one process never emulates/decodes the same
#: workload twice (the matrix shares a trace across its configurations,
#: exactly as ResultMatrix always did in-memory).  Bounded FIFO.
_TRACE_MEMO: dict[str, DynamicTrace] = {}
_TRACE_MEMO_CAP = 16


def _memoize_trace(key: str, trace: DynamicTrace) -> None:
    if len(_TRACE_MEMO) >= _TRACE_MEMO_CAP:
        _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
    _TRACE_MEMO[key] = trace


def compute_trace(
    name: str,
    scale: int | None = None,
    seed: int = 1,
    store: ArtifactStore | None = None,
    telemetry: TaskTelemetry | None = None,
    metrics: MetricsRegistry | None = None,
) -> DynamicTrace:
    """Fetch a captured trace (memory, then store), or emulate and capture it."""
    key = trace_key(name, scale, seed)
    memoized = _TRACE_MEMO.get(key)
    if memoized is not None:
        return memoized
    if store is not None:
        trace = store.get_trace(key)
        if trace is not None:
            if telemetry is not None:
                telemetry.trace_cache_hit = True
            _memoize_trace(key, trace)
            return trace
    trace = build_workload(name, scale=scale, seed=seed, metrics=metrics)
    if telemetry is not None:
        telemetry.emulated = True
    if store is not None:
        store.put_trace(key, trace, label=f"{name} seed={seed}")
    _memoize_trace(key, trace)
    return trace


def compute_cell(
    task: MatrixTask, store: ArtifactStore | None = None
) -> tuple[ExperimentResult, TaskTelemetry, dict]:
    """Resolve one matrix cell: result cache → trace cache → emulate+simulate.

    The third element is a :class:`MetricsRegistry` snapshot holding
    everything the cell measured.  Cells record into a private registry
    (not the process global) so snapshots survive the pickle boundary
    back from pool workers and merge deterministically in task order.
    """
    telemetry = TaskTelemetry(
        workload=task.workload,
        config_name=task.config.name,
        worker_pid=os.getpid(),
    )
    registry = MetricsRegistry()
    start = time.perf_counter()
    from repro.harness.experiment import ExperimentResult, run_experiment

    key = result_key(task.workload, task.config, task.scale, task.seed)
    result: ExperimentResult | None = None
    if store is not None:
        cached = store.get_result(key)
        if isinstance(cached, ExperimentResult):
            result = cached
            telemetry.result_cache_hit = True
    if result is None:
        trace = compute_trace(
            task.workload, task.scale, task.seed, store, telemetry,
            metrics=registry,
        )
        result = run_experiment(
            trace, task.config, workload_name=task.workload, metrics=registry
        )
        telemetry.simulated = True
        if store is not None:
            store.put_result(
                key, result, label=f"{task.workload}/{task.config.name}"
            )
    telemetry.seconds = time.perf_counter() - start
    return result, telemetry, registry.snapshot()


# --------------------------------------------------------------- fan-out

def _worker(
    payload: tuple[list[MatrixTask], str | None]
) -> list[tuple[ExperimentResult, TaskTelemetry, dict]]:
    """Pool-side task body: open the store, then compute one trace's cells.

    The payload is a picklable ``(tasks, store_root)`` pair; the result
    is ``(result, telemetry, metrics snapshot)`` per task, in order.  A
    cell's cache accounting travels back in its :class:`TaskTelemetry`,
    so it is the same under any ``jobs``.  A failing cell's exception
    names the cell in its ``matrix_task`` attribute.
    """
    tasks, store_root = payload
    store = ArtifactStore(store_root) if store_root is not None else None
    outputs = []
    for task in tasks:
        try:
            outputs.append(compute_cell(task, store))
        except Exception as exc:
            exc.matrix_task = task
            raise
    return outputs


#: Exception types that mean "the pool itself is unusable" — the only
#: legitimate reasons to degrade to a serial run.  Anything else coming
#: out of a cell is that cell's own bug and must propagate immediately.
_POOL_ERRORS = (BrokenProcessPool, PicklingError, OSError)


def run_tasks(
    worker,
    payloads: list,
    jobs: int = 1,
    registry: MetricsRegistry | None = None,
    wrap_error=None,
) -> tuple[list, int]:
    """Generic ordered fan-out over a process pool (or serially).

    ``worker`` must be a module-level picklable callable taking one
    payload; ``payloads`` must pickle.  Results come back in payload
    order regardless of completion order, so parallel and serial runs
    are indistinguishable to the caller.  Returns ``(results,
    effective_jobs)``.

    Error handling is two-tier, shared by the experiment matrix and the
    fuzz campaign: pool-infrastructure failures (broken pool, pickling,
    OS errors standing the pool up) degrade to a serial run with a
    warning and a ``runner.pool_fallbacks`` count; a task's own
    exception raises a :class:`TaskError` (customized via
    ``wrap_error(payload, exc) -> TaskError``) with the original
    traceback chained.
    """
    registry = registry if registry is not None else get_registry()
    results: list = [None] * len(payloads)
    done = [False] * len(payloads)

    def fail(index: int, exc: BaseException):
        if wrap_error is not None:
            raise wrap_error(payloads[index], exc) from exc
        raise TaskError(f"task {index}", exc) from exc

    effective_jobs = max(1, min(jobs, len(payloads)))
    if effective_jobs > 1:
        try:
            _fan_out(worker, payloads, effective_jobs, results, done, fail)
        except TaskError:
            raise
        except _POOL_ERRORS as exc:
            log.warning(
                "process pool unavailable (%s: %s); falling back to serial",
                type(exc).__name__,
                exc,
            )
            registry.counter("runner.pool_fallbacks").inc()
            effective_jobs = 1
    for index, payload in enumerate(payloads):
        if not done[index]:
            try:
                results[index] = worker(payload)
            except Exception as exc:
                fail(index, exc)
    return results, effective_jobs


def _fan_out(worker, payloads, jobs, results, done, fail) -> None:
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {
            index: pool.submit(worker, payload)
            for index, payload in enumerate(payloads)
        }
        for index, future in futures.items():
            try:
                results[index] = future.result()
            except BrokenProcessPool:
                # A dead pool is infrastructure trouble; let run_tasks
                # degrade to serial.
                raise
            except Exception as exc:
                # The task itself failed: surface it now instead of
                # re-running everything serially just to hit the same
                # bug again.
                fail(index, exc)
            else:
                done[index] = True


def run_matrix(
    tasks: list[MatrixTask],
    jobs: int = 1,
    store: ArtifactStore | None = None,
    metrics: MetricsRegistry | None = None,
) -> MatrixRun:
    """Run every task, serially or across a process pool.

    Results are returned in input order regardless of completion order.
    The cells of one trace (workload, scale, seed) run in order in one
    payload, so one worker emulates and injects each trace; ``jobs`` is
    clamped to the number of traces.  ``jobs <= 1`` (or an environment
    where process pools are unavailable) runs serially in-process.

    Error handling is two-tier: pool-infrastructure failures
    (:class:`BrokenProcessPool`, :class:`PicklingError`, :class:`OSError`
    while standing the pool up) degrade to a serial run with a warning
    and a ``runner.pool_fallbacks`` count; a task's own exception raises
    :class:`MatrixTaskError` naming the failing cell, with the original
    traceback chained.

    Each cell's metric snapshot is merged into ``metrics`` (the
    process-global registry when not given) in task order, so parallel
    and serial runs accumulate identical deterministic counter totals.
    """
    registry = metrics if metrics is not None else get_registry()
    start = time.perf_counter()
    store_root = str(store.root) if store is not None else None
    groups: dict[tuple, list[int]] = {}
    for index, task in enumerate(tasks):
        groups.setdefault((task.workload, task.scale, task.seed), []).append(index)
    payloads = [([tasks[i] for i in indices], store_root) for indices in groups.values()]

    def wrap_error(payload, exc: BaseException) -> MatrixTaskError:
        task = getattr(exc, "matrix_task", payload[0][0])
        return MatrixTaskError(task.workload, task.config.name, exc)

    grouped, effective_jobs = run_tasks(
        _worker, payloads, jobs=jobs, registry=registry, wrap_error=wrap_error
    )
    outputs: list = [None] * len(tasks)
    for indices, group_outputs in zip(groups.values(), grouped):
        for index, output in zip(indices, group_outputs):
            outputs[index] = output
    results: list[ExperimentResult] = []
    telemetry: list[TaskTelemetry] = []
    for result, task_telemetry, snapshot in outputs:
        results.append(result)
        telemetry.append(task_telemetry)
        registry.merge(snapshot)
    registry.counter("runner.cells").inc(len(tasks))
    registry.gauge("runner.effective_jobs").set(effective_jobs)
    return MatrixRun(
        tasks=list(tasks),
        results=results,  # type: ignore[arg-type]
        telemetry=telemetry,  # type: ignore[arg-type]
        jobs=effective_jobs,
        seconds=time.perf_counter() - start,
    )

