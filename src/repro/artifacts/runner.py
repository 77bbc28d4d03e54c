"""Keying, trace capture and the ordered process-pool fan-out.

Every figure of the paper is a (workload, configuration) matrix of
independent simulations over traces captured once;
:class:`repro.harness.figures.ResultMatrix` resolves it on top of this
module, which knows nothing of the harness.  :func:`compute_trace`
fetches a captured trace (memory, then store) or emulates and captures
it; :func:`run_tasks` fans payloads out across a process pool (or runs
them serially) and returns results in payload order, so parallel and
serial runs are indistinguishable; the fuzz campaign uses it too.

Cache keying (see :func:`trace_key_material` / :func:`result_key_material`):
a trace is addressed by the SHA-256 of the workload's *source code*,
scale, seed, and instruction budget; a result additionally mixes in every
field of the experiment configuration (nested dataclasses included) and
the store format version.  Changing any input — editing a workload,
flipping an optimizer pass, resizing a cache — changes the key and forces
a recompute; nothing is ever served stale.
"""

from __future__ import annotations

import hashlib
import inspect
import logging
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pickle import PicklingError

from repro.artifacts.store import ArtifactStore, content_key
from repro.metrics import MetricsRegistry, get_registry
from repro.trace.stream import DynamicTrace
from repro.workloads import build_workload, get_workload

log = logging.getLogger("repro.artifacts")

#: Emulation budget of every captured trace; part of the trace key.
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
    name: str, config, scale: int | None = None, seed: int = 1
) -> dict:
    """Key material of ``config``'s result on a trace; ``config`` is an
    experiment configuration (anything with a ``fingerprint()``)."""
    return {
        "trace": trace_key_material(name, scale, seed),
        "config": config.fingerprint(),
    }


def result_key(name: str, config, scale: int | None = None, seed: int = 1) -> str:
    return content_key("result", result_key_material(name, config, scale, seed))


# ------------------------------------------------ telemetry, trace capture


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
    trace = build_workload(
        name, scale=scale, seed=seed, max_instructions=MAX_INSTRUCTIONS, metrics=metrics
    )
    if telemetry is not None:
        telemetry.emulated = True
    if store is not None:
        store.put_trace(key, trace, label=f"{name} seed={seed}")
    _memoize_trace(key, trace)
    return trace


# --------------------------------------------------------------- fan-out

#: Exception types that mean "the pool itself is unusable" — the only
#: legitimate reasons to degrade to a serial run.  Anything else coming
#: out of a cell is that cell's own bug and must propagate immediately.
_POOL_ERRORS = (BrokenProcessPool, PicklingError, OSError)


def run_tasks(
    worker,
    payloads: list,
    wrap_error,
    jobs: int = 1,
    registry: MetricsRegistry | None = None,
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
    exception raises ``wrap_error(payload, exc)`` (a :class:`TaskError`
    naming the task) with the original traceback chained.
    """
    registry = registry if registry is not None else get_registry()
    results: list = [None] * len(payloads)
    done = [False] * len(payloads)

    def fail(index: int, exc: BaseException):
        raise wrap_error(payloads[index], exc) from exc

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
