"""Sweep execution: plan cells, run them, fold a reproducible digest.

Cells run through :func:`repro.artifacts.runner.run_matrix` (ordered
process pool, artifact-store dedup).

The digest folds canonical per-cell records in plan order
(workload-major, then point order), exactly the fold the fuzz
campaigns use, so it is independent of ``--jobs``, completion order,
and cache state.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from repro.artifacts.runner import MatrixTask, run_matrix
from repro.artifacts.store import ArtifactStore
from repro.metrics import MetricsRegistry
from repro.metrics.ledger import result_entry
from repro.tune.planner import plan_points
from repro.tune.space import TunePoint, TuneSpace

__all__ = ["SweepResult", "SweepSettings", "TuneError", "run_sweep"]


class TuneError(RuntimeError):
    """A sweep could not complete (empty plan, bad PGO input, ...)."""


@dataclass(frozen=True)
class SweepSettings:
    """How to plan and execute one sweep."""

    search: str = "grid"  # 'grid' | 'random' | 'halving'
    seed: int = 1
    samples: int = 16
    scale: int | None = None
    trace_seed: int = 1
    jobs: int = 1
    #: Successive halving: survivors are re-ranked after seeing this
    #: many *additional* workloads per round (prefix doubling).
    halving_rounds: int = 3


@dataclass
class SweepResult:
    """Everything a sweep produced, digest included.

    ``records`` is the canonical list the surface/PGO layers consume:
    one ``{"workload", "label", "point", "entry"}`` dict per executed
    cell, in plan order.  Halving runs append rounds in order, so the
    record list replays the search trajectory, not just the final
    survivors.
    """

    search: str
    seed: int
    workloads: list[str]
    points: list[dict] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    survivors: list[dict] = field(default_factory=list)
    digest: str = ""
    jobs: int = 1
    cells_cached: int = 0
    cells_computed: int = 0
    seconds: float = 0.0

    def to_json(self) -> dict:
        return {
            "search": self.search,
            "seed": self.seed,
            "workloads": list(self.workloads),
            "points": list(self.points),
            "records": list(self.records),
            "survivors": list(self.survivors),
            "digest": self.digest,
            "jobs": self.jobs,
            "cells_cached": self.cells_cached,
            "cells_computed": self.cells_computed,
            "seconds": round(self.seconds, 3),
        }


def _record(workload: str, point: TunePoint, entry: dict) -> dict:
    return {
        "workload": workload,
        "label": point.label(),
        "point": point.to_json(),
        "entry": entry,
    }


def _run_cells(
    cells: list[tuple[str, TunePoint]],
    settings: SweepSettings,
    store: ArtifactStore | None,
    metrics: MetricsRegistry | None,
    result: SweepResult,
) -> list[dict]:
    tasks = [
        MatrixTask(
            workload=workload,
            config=point.experiment_config(),
            scale=settings.scale,
            seed=settings.trace_seed,
        )
        for workload, point in cells
    ]
    run = run_matrix(tasks, jobs=settings.jobs, store=store, metrics=metrics)
    result.jobs = run.jobs
    for telemetry in run.telemetry:
        if telemetry.result_cache_hit:
            result.cells_cached += 1
        else:
            result.cells_computed += 1
    return [
        _record(workload, point, result_entry(workload, point.label(), res))
        for (workload, point), res in zip(cells, run.results)
    ]


def _mean_ipc(records: list[dict], label: str) -> float:
    values = [
        r["entry"]["ipc_x86"] for r in records if r["label"] == label
    ]
    return sum(values) / len(values) if values else 0.0


def run_sweep(
    space: TuneSpace,
    settings: SweepSettings | None = None,
    store: ArtifactStore | None = None,
    metrics: MetricsRegistry | None = None,
    progress=None,
) -> SweepResult:
    """Plan and execute one sweep over ``space``.

    Cells run through the matrix runner against ``store``.
    ``progress(done, total)`` fires after each executed batch.
    """
    settings = settings or SweepSettings()
    space.validate()
    points = plan_points(space, settings.search, settings.seed, settings.samples)
    if not points:
        raise TuneError("the planned sweep is empty")
    workloads = list(space.workloads)
    result = SweepResult(
        search=settings.search,
        seed=settings.seed,
        workloads=workloads,
        points=[p.to_json() for p in points],
        jobs=settings.jobs,
    )
    start = time.perf_counter()
    fold = hashlib.sha256()
    done = 0

    def execute(cells: list[tuple[str, TunePoint]]) -> list[dict]:
        nonlocal done
        records = _run_cells(cells, settings, store, metrics, result)
        for record in records:
            fold.update(
                json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
            )
        result.records.extend(records)
        done += len(records)
        if progress is not None:
            progress(done, None)
        return records

    if settings.search == "halving":
        survivors = _run_halving(space, settings, points, execute)
        result.survivors = [p.to_json() for p in survivors]
    else:
        execute([(w, p) for w in workloads for p in points])

    result.seconds = time.perf_counter() - start
    result.digest = fold.hexdigest()
    if metrics is not None:
        metrics.counter("tune.sweep_cells").inc(len(result.records))
        metrics.counter("tune.sweeps").inc()
    return result


def _run_halving(
    space: TuneSpace,
    settings: SweepSettings,
    points: list[TunePoint],
    execute,
) -> list[TunePoint]:
    """Successive halving over a growing workload prefix.

    Round *r* evaluates the surviving points on the first
    ``min(2**r, len(workloads))`` workloads (cells already executed in
    earlier rounds dedup through the artifact store), then keeps the
    top half by mean IPC.  Ties break on the point label, so the
    trajectory is deterministic.
    """
    workloads = list(space.workloads)
    survivors = list(points)
    seen: set[tuple[str, str]] = set()
    all_records: list[dict] = []
    for round_index in range(settings.halving_rounds):
        if len(survivors) <= 1:
            break
        prefix = workloads[: min(2**round_index, len(workloads))]
        cells = [
            (w, p)
            for w in prefix
            for p in survivors
            if (w, p.label()) not in seen
        ]
        seen.update((w, p.label()) for w, p in cells)
        if cells:
            all_records.extend(execute(cells))
        relevant = [
            r
            for r in all_records
            if r["workload"] in prefix
            and r["label"] in {p.label() for p in survivors}
        ]
        ranked = sorted(
            survivors,
            key=lambda p: (-_mean_ipc(relevant, p.label()), p.label()),
        )
        survivors = ranked[: max(1, len(ranked) // 2)]
    return survivors
