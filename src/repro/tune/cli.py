"""The ``tune`` subcommand: sweep / report / pgo.

Usage::

    python -m repro.harness tune sweep --space smoke --jobs 4
    python -m repro.harness tune sweep --search random --samples 12 --seed 1
    python -m repro.harness tune sweep --out sweep.json
    python -m repro.harness tune sweep --emit-stats run.json   # v2 ledger
    python -m repro.harness tune report sweep.json             # or run.json
    python -m repro.harness tune pgo sweep.json --jobs 4

``sweep`` prints the sensitivity surface (table or ``--json``) plus two
digest lines on stdout — ``sweep digest`` (over the canonical record
list) and ``surface digest`` (over the aggregated report) — both of
which are deterministic across ``--jobs`` levels and cache state, and
pinnable in CI.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.artifacts.store import ArtifactStore
from repro.metrics import (
    LedgerError,
    build_run_ledger,
    get_registry,
    profiled,
    write_ledger,
)
from repro.timing.config import ConfigError
from repro.tune.engine import SweepResult, SweepSettings, TuneError, run_sweep
from repro.tune.pgo import format_pgo, run_pgo
from repro.tune.space import default_space, smoke_space
from repro.tune.surface import build_surface, format_surface, surface_digest

__all__ = ["tune_main"]

SPACES = ("default", "smoke")


def _build_space(args):
    workloads = None
    if args.workloads:
        workloads = tuple(w for w in args.workloads.split(",") if w)
    if args.space == "smoke":
        return smoke_space(workloads)
    return default_space(workloads)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=int, default=None)
    parser.add_argument("--trace-seed", type=int, default=1, metavar="N",
                        help="workload trace data seed (not the plan seed)")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the artifact store: recompute everything, write nothing",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="artifact cache root (default: $REPRO_UOPT_CACHE_DIR "
        "or ~/.cache/repro-uopt)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="wrap the run in cProfile and print hotspots to stderr",
    )


def _store(args) -> ArtifactStore | None:
    return None if args.no_cache else ArtifactStore(args.cache_dir)


def sweep_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness tune sweep",
        description="Plan and run an autotuning sweep, print the "
        "sensitivity surface.",
    )
    parser.add_argument("--space", choices=SPACES, default="default")
    parser.add_argument(
        "--search", choices=("grid", "random", "halving"), default="grid",
    )
    parser.add_argument(
        "--seed", type=int, default=1,
        help="plan seed for random/halving sampling",
    )
    parser.add_argument(
        "--samples", type=int, default=16,
        help="points sampled by random/halving search",
    )
    parser.add_argument(
        "--workloads", default=None, metavar="A,B,...",
        help="override the space's workload list",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the sweep report (records + surface) as JSON",
    )
    parser.add_argument(
        "--emit-stats", default=None, metavar="FILE",
        help="write a v2 run ledger carrying the sweep section",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the surface as JSON instead of a table",
    )
    _add_run_flags(parser)
    args = parser.parse_args(argv)

    space = _build_space(args)
    settings = SweepSettings(
        search=args.search,
        seed=args.seed,
        samples=args.samples,
        scale=args.scale,
        trace_seed=args.trace_seed,
        jobs=args.jobs,
    )
    registry = get_registry()
    store = _store(args)

    def progress(done: int, _total) -> None:
        print(f"[repro.tune] {done} cells done", file=sys.stderr, flush=True)

    try:
        with profiled(enabled=args.profile):
            result = run_sweep(
                space,
                settings,
                store=store,
                metrics=registry,
                progress=progress,
            )
    except (ConfigError, TuneError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    surface = build_surface(result.records)
    if args.json:
        print(json.dumps(surface, indent=2, sort_keys=True))
    else:
        print(format_surface(surface))
    print(f"sweep digest: {result.digest}")
    print(f"surface digest: {surface_digest(surface)}")
    print(
        f"[repro.tune] {len(result.records)} cells "
        f"({result.cells_cached} cached, {result.cells_computed} computed) "
        f"in {result.seconds:.2f}s (jobs={result.jobs})",
        file=sys.stderr,
    )
    if args.out:
        report = result.to_json()
        report["schema"] = "repro-uopt/tune-sweep"
        report["version"] = 1
        report["surface"] = surface
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[repro.tune] sweep report written to {args.out}", file=sys.stderr)
    if args.emit_stats:
        _emit_sweep_ledger(argv, args, result, store, registry)
    return 0


class _NoMatrix:
    """Ledger stand-in (the sweep runs outside a ResultMatrix)."""

    telemetry: list = []
    _results: dict = {}
    jobs = 1
    scale = None
    seed = None

    def __init__(self, store: ArtifactStore | None) -> None:
        self.store = store


def _emit_sweep_ledger(argv, args, result: SweepResult, store, registry) -> None:
    matrix = _NoMatrix(store)
    matrix.jobs = result.jobs
    matrix.scale = args.scale
    matrix.seed = args.trace_seed
    ledger = build_run_ledger(
        argv, ["tune-sweep"], matrix, registry=registry, sweep=result.to_json()
    )
    write_ledger(args.emit_stats, ledger)
    print(
        f"[repro.metrics] run ledger written to {args.emit_stats}",
        file=sys.stderr,
    )


def _load_records(path: str) -> list[dict]:
    """Sweep records from either a sweep report or a v2 run ledger."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise LedgerError(str(exc))
    except ValueError as exc:
        raise LedgerError(f"{path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise LedgerError(f"{path}: expected a JSON object")
    if isinstance(data.get("sweep"), dict):  # v2 run ledger
        data = data["sweep"]
    records = data.get("records")
    if not isinstance(records, list) or not records:
        raise LedgerError(
            f"{path}: no sweep records (expected a `tune sweep --out` "
            f"report or a `--emit-stats` v2 ledger)"
        )
    return records


def report_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness tune report",
        description="Rebuild and print the sensitivity surface from a "
        "stored sweep report or v2 run ledger.",
    )
    parser.add_argument("file", help="sweep report or run-ledger JSON")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    try:
        records = _load_records(args.file)
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    surface = build_surface(records)
    if args.json:
        print(json.dumps(surface, indent=2, sort_keys=True))
    else:
        print(format_surface(surface))
    print(f"surface digest: {surface_digest(surface)}")
    return 0


def pgo_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness tune pgo",
        description="Select per-workload frame-construction parameters "
        "from a prior sweep and report the tuned-vs-baseline IPC delta.",
    )
    parser.add_argument("file", help="sweep report or run-ledger JSON")
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the PGO delta report as JSON",
    )
    parser.add_argument("--json", action="store_true")
    _add_run_flags(parser)
    args = parser.parse_args(argv)
    try:
        records = _load_records(args.file)
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    settings = SweepSettings(
        scale=args.scale, trace_seed=args.trace_seed, jobs=args.jobs
    )
    try:
        with profiled(enabled=args.profile):
            report = run_pgo(
                records,
                settings,
                store=_store(args),
                metrics=get_registry(),
            )
    except (ConfigError, TuneError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_pgo(report))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[repro.tune] pgo report written to {args.out}", file=sys.stderr)
    return 0


def tune_main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv else 2
    command, rest = argv[0], argv[1:]
    if command == "sweep":
        return sweep_main(rest)
    if command == "report":
        return report_main(rest)
    if command == "pgo":
        return pgo_main(rest)
    print(f"tune: unknown command {command!r} (sweep | report | pgo)", file=sys.stderr)
    return 2
