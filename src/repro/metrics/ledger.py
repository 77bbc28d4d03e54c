"""Versioned JSON run ledger: one file describing one harness run.

``python -m repro.harness <experiments> --emit-stats FILE`` writes a
ledger; ``python -m repro.harness stats FILE`` pretty-prints one.  The
ledger is the run's flight recorder: what was asked for, where every
matrix cell came from (cache vs recompute), what each simulation
measured (cycles, the seven Figure-7/8 bins, per-pass uop removal), and
the merged process-wide metric counters.

The per-result sections are derived from the :class:`ExperimentResult`
objects themselves — the same objects the Table 3 aggregation path
reads — so a warm, fully cached run ledgers the identical totals a cold
run does, and a parallel run the identical totals a serial one does.

The schema is versioned and checked by :func:`validate_ledger`; the
check is hand-rolled (no jsonschema dependency) and deliberately strict
about the keys downstream tooling reads.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.metrics.registry import get_registry

SCHEMA_NAME = "repro-uopt/run-ledger"
LEDGER_VERSION = 1
SUPPORTED_VERSIONS = (LEDGER_VERSION,)


class LedgerError(ValueError):
    """Raised when a ledger fails schema validation."""


# ------------------------------------------------------------------ build


def result_entry(workload: str, config_name: str, result) -> dict:
    """One cell's measurements as plain JSON-ready data (one entry of the
    ledger's ``results`` section)."""
    sim = result.sim
    entry = {
        "workload": workload,
        "config": config_name,
        "ipc_x86": sim.ipc_x86,
        "cycles": sim.cycles,
        "x86_retired": sim.x86_retired,
        "uops_fetched": sim.uops_fetched,
        "loads_executed": sim.loads_executed,
        "stores_executed": sim.stores_executed,
        "bins": dict(sim.bins),
        "coverage": sim.coverage,
        "frames_fetched": sim.frames_fetched,
        "frames_fired": sim.frames_fired,
        "branch_mispredicts": sim.branch_mispredicts,
        "window_occupancy_mean": getattr(sim, "window_occupancy_mean", 0.0),
        "uop_reduction": result.uop_reduction,
        "load_reduction": result.load_reduction,
        "optimizer": None,
        "sequencer": None,
    }
    totals = result.optimizer_totals
    if totals is not None:
        entry["optimizer"] = {
            "frames_optimized": totals.frames_optimized,
            "frames_dropped": totals.frames_dropped,
            "uops_before": totals.uops_before,
            "uops_after": totals.uops_after,
            "uops_removed": totals.uops_before - totals.uops_after,
            "loads_before": totals.loads_before,
            "loads_after": totals.loads_after,
            "loads_removed": totals.loads_before - totals.loads_after,
            "loads_removed_speculatively": totals.loads_removed_speculatively,
            "stores_marked_unsafe": totals.stores_marked_unsafe,
            "changes_by_pass": dict(getattr(totals, "changes_by_pass", {})),
        }
    stats = result.sequencer_stats
    if stats is not None:
        entry["sequencer"] = {
            "raw_uops_total": stats.raw_uops_total,
            "frame_raw_uops": stats.frame_raw_uops,
            "frame_fetched_uops": stats.frame_fetched_uops,
            "frame_dispatches": stats.frame_dispatches,
            "frame_aborts": stats.frame_aborts,
            "unsafe_aborts": stats.unsafe_aborts,
            "cooldown_skips": getattr(stats, "cooldown_skips", 0),
        }
    return entry


def build_run_ledger(
    argv: list[str],
    experiments: list[str],
    matrix=None,
    registry=None,
    store=None,
) -> dict:
    """Assemble a ledger dict from a finished :class:`ResultMatrix` run.

    Runs without a matrix (``cache``, ``fuzz``, ``scenarios``) pass
    ``matrix=None`` and their ``store``: their ledger has no cells or
    results, ``jobs`` 1, no scale or seed, and the store's stats.
    """
    if matrix is None:
        command = {"jobs": 1, "scale": None, "seed": None}
        telemetry, cell_results = [], {}
    else:
        command = {
            "jobs": matrix.jobs,
            "scale": matrix.scale,
            "seed": matrix.seed,
        }
        telemetry, cell_results = matrix.telemetry, matrix._results
        store = matrix.store
    cells = [
        {
            "workload": t.workload,
            "config": t.config_name,
            "seconds": t.seconds,
            "result_cache_hit": t.result_cache_hit,
            "trace_cache_hit": t.trace_cache_hit,
            "emulated": t.emulated,
            "simulated": t.simulated,
            "worker_pid": t.worker_pid,
        }
        for t in telemetry
    ]
    results = [
        result_entry(workload, config_name, result)
        for (workload, config_name), result in sorted(cell_results.items())
    ]
    passes: dict[str, int] = {}
    uops_removed_total = 0
    loads_removed_total = 0
    for entry in results:
        optimizer = entry["optimizer"]
        if optimizer is None:
            continue
        uops_removed_total += optimizer["uops_removed"]
        loads_removed_total += optimizer["loads_removed"]
        for name, changes in optimizer["changes_by_pass"].items():
            passes[name] = passes.get(name, 0) + changes
    ledger = {
        "schema": SCHEMA_NAME,
        "version": LEDGER_VERSION,
        "created": time.time(),
        "command": {
            "argv": list(argv),
            "experiments": list(experiments),
            **command,
        },
        "cells": cells,
        "results": results,
        "passes": passes,
        "optimizer_totals": {
            "uops_removed": uops_removed_total,
            "loads_removed": loads_removed_total,
        },
        "metrics": (registry.snapshot() if registry is not None else None),
        "store": (store.stats() if store is not None else None),
    }
    return ledger


def emit_run_ledger(
    path: str | Path,
    argv: list[str],
    experiments: list[str],
    matrix=None,
    store=None,
) -> None:
    """Write the ledger of a finished run over the process-wide metrics
    registry, and say where on stderr."""
    ledger = build_run_ledger(
        argv, experiments, matrix, registry=get_registry(), store=store
    )
    write_ledger(path, ledger)
    print(f"[repro.metrics] run ledger written to {path}", file=sys.stderr)


def write_ledger(path: str | Path, ledger: dict) -> Path:
    """Validate and write a ledger as JSON; returns the path written."""
    validate_ledger(ledger)
    path = Path(path)
    path.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    return path


def read_ledger(path: str | Path) -> dict:
    """Load and validate a ledger file."""
    try:
        ledger = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise LedgerError(f"{path} is not valid JSON: {exc}") from exc
    validate_ledger(ledger)
    return ledger


# --------------------------------------------------------------- validate

_TOP_LEVEL = {
    "schema": str,
    "version": int,
    "created": (int, float),
    "command": dict,
    "cells": list,
    "results": list,
    "passes": dict,
    "optimizer_totals": dict,
}

_CELL_KEYS = {
    "workload": str,
    "config": str,
    "seconds": (int, float),
    "result_cache_hit": bool,
    "trace_cache_hit": bool,
    "emulated": bool,
    "simulated": bool,
}

_RESULT_KEYS = {
    "workload": str,
    "config": str,
    "ipc_x86": (int, float),
    "cycles": int,
    "x86_retired": int,
    "uops_fetched": int,
    "bins": dict,
    "uop_reduction": (int, float),
    "load_reduction": (int, float),
}


def _check_keys(label: str, data: dict, spec: dict, problems: list[str]) -> None:
    for key, expected in spec.items():
        if key not in data:
            problems.append(f"{label}: missing key {key!r}")
        elif not isinstance(data[key], expected):
            problems.append(
                f"{label}: {key!r} has type {type(data[key]).__name__}, "
                f"expected {expected}"
            )


def validate_ledger(ledger: dict) -> None:
    """Raise :class:`LedgerError` (listing every problem) on a bad ledger."""
    problems: list[str] = []
    if not isinstance(ledger, dict):
        raise LedgerError(f"ledger must be a dict, got {type(ledger).__name__}")
    _check_keys("ledger", ledger, _TOP_LEVEL, problems)
    if ledger.get("schema") not in (None, SCHEMA_NAME):
        problems.append(f"unknown schema {ledger['schema']!r}")
    if (
        isinstance(ledger.get("version"), int)
        and ledger["version"] not in SUPPORTED_VERSIONS
    ):
        problems.append(
            f"ledger version {ledger['version']} not supported "
            f"(supported: {', '.join(map(str, SUPPORTED_VERSIONS))})"
        )
    for index, cell in enumerate(ledger.get("cells") or []):
        if not isinstance(cell, dict):
            problems.append(f"cells[{index}]: not a dict")
            continue
        _check_keys(f"cells[{index}]", cell, _CELL_KEYS, problems)
    for index, entry in enumerate(ledger.get("results") or []):
        if not isinstance(entry, dict):
            problems.append(f"results[{index}]: not a dict")
            continue
        _check_keys(f"results[{index}]", entry, _RESULT_KEYS, problems)
    passes = ledger.get("passes")
    if isinstance(passes, dict):
        for name, changes in passes.items():
            if not isinstance(changes, int):
                problems.append(f"passes[{name!r}]: not an int")
    if problems:
        raise LedgerError("; ".join(problems))


# ----------------------------------------------------------------- render


def format_ledger(ledger: dict) -> str:
    """Human-readable summary of a run ledger (the ``stats`` subcommand)."""
    lines: list[str] = []
    command = ledger["command"]
    lines.append(f"run ledger v{ledger['version']}  ({ledger['schema']})")
    lines.append(
        f"experiments: {' '.join(command['experiments'])}  "
        f"(jobs={command['jobs']}, scale={command['scale']}, "
        f"seed={command['seed']})"
    )
    cells = ledger["cells"]
    hits = sum(1 for c in cells if c["result_cache_hit"])
    simulated = sum(1 for c in cells if c["simulated"])
    emulated = sum(1 for c in cells if c["emulated"])
    seconds = sum(c["seconds"] for c in cells)
    lines.append(
        f"cells: {len(cells)} ({hits} cached, {simulated} simulated, "
        f"{emulated} emulated) in {seconds:.1f}s of task time"
    )
    totals = ledger["optimizer_totals"]
    lines.append(
        f"optimizer: {totals['uops_removed']:,} uops and "
        f"{totals['loads_removed']:,} loads removed (static, all frames)"
    )
    if ledger["passes"]:
        width = max(len(name) for name in ledger["passes"])
        for name in sorted(ledger["passes"]):
            lines.append(f"  {name:<{width}}  {ledger['passes'][name]:,} changes")
    by_cycles = sorted(
        ledger["results"], key=lambda r: r["cycles"], reverse=True
    )[:8]
    if by_cycles:
        lines.append("hottest cells (by cycles):")
        for entry in by_cycles:
            lines.append(
                f"  {entry['workload']:<8} {entry['config']:<10} "
                f"{entry['cycles']:>9,} cycles  IPC {entry['ipc_x86']:.2f}  "
                f"occupancy {entry.get('window_occupancy_mean', 0.0):.0f}"
            )
    metrics = ledger.get("metrics")
    if metrics and metrics.get("counters"):
        lines.append("counters:")
        for name in sorted(metrics["counters"]):
            value = metrics["counters"][name]
            rendered = f"{value:,}" if isinstance(value, int) else f"{value:,.3f}"
            lines.append(f"  {name:<40} {rendered}")
    if metrics and metrics.get("histograms"):
        lines.append("timers/histograms:")
        for name in sorted(metrics["histograms"]):
            data = metrics["histograms"][name]
            mean = data["sum"] / data["count"] if data["count"] else 0.0
            lines.append(
                f"  {name:<40} n={data['count']} mean={mean:.4f} "
                f"min={data['min']:.4f} max={data['max']:.4f}"
            )
    store = ledger.get("store")
    if store:
        lines.append(
            f"store: {store['entries']} entries, "
            f"{store['bytes'] / (1024 * 1024):.2f} MB at {store['root']}"
        )
    return "\n".join(lines)
