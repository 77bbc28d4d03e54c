"""Command-line entry point: regenerate any table or figure.

Usage::

    python -m repro.harness table1
    python -m repro.harness fig6 table3 --jobs 4
    python -m repro.harness all --scale 2
    python -m repro.harness fig6 --no-cache       # force recompute
    python -m repro.harness fig6 --emit-stats run.json   # write a run ledger
    python -m repro.harness stats run.json        # pretty-print a run ledger
    python -m repro.harness cache stats           # entries and bytes per kind
    python -m repro.harness cache clear           # delete every entry
    python -m repro.harness scenarios characterize gzip   # reuse/latency report
    python -m repro.harness fuzz run --seed 1 --iterations 10000 --jobs 4
    python -m repro.harness fuzz config run --seed 1 --iterations 200
    python -m repro.harness fuzz repro <case-id>  # replay a stored divergence
    python -m repro.harness fuzz corpus ls

Experiment runs go through the :mod:`repro.artifacts` store, so a warm
second run does zero workload emulation; a one-line cache/parallelism
summary is printed to stderr (stdout stays byte-identical between cold
and warm runs, and with or without ``--emit-stats``).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.artifacts.runner import MatrixTaskError
from repro.artifacts.store import ArtifactStore
from repro.harness import figures, report
from repro.metrics import (
    LedgerError,
    emit_run_ledger,
    format_ledger,
    read_ledger,
)
from repro.workloads import WorkloadError

EXPERIMENTS = ("table1", "table2", "fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "table3")


def _render(name: str, matrix: figures.ResultMatrix) -> str:
    if name == "table1":
        return report.format_table1(figures.run_table1(matrix))
    if name == "table2":
        return "Table 2: processor configuration\n" + figures.run_table2()
    if name == "fig2":
        from repro.harness.fig2 import figure2_report

        return figure2_report()
    if name == "fig6":
        return report.format_fig6(figures.run_fig6(matrix))
    if name in ("fig7", "fig8"):
        workloads = figures.PAPER_ORDER[:7] if name == "fig7" else figures.PAPER_ORDER[7:]
        return report.format_fig7_8(figures.run_fig7_8(matrix, workloads))
    if name == "fig9":
        return report.format_fig9(figures.run_fig9(matrix))
    if name == "fig10":
        return report.format_fig10(figures.run_fig10(matrix))
    if name == "table3":
        return report.format_table3(figures.run_table3(matrix))
    raise ValueError(f"unknown experiment {name!r}")


def positive_int(text: str) -> int:
    """Argparse type of a count flag: an integer of at least 1, so a bad
    value exits 2 naming the flag before any work starts."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def stats_path(text: str) -> str:
    """Argparse type of ``--emit-stats``: a file in an existing, writable
    directory, so a bad path exits 2 before the run rather than after it."""
    directory = os.path.dirname(os.path.abspath(text))
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"no such directory: {directory}")
    if not os.access(directory, os.W_OK):
        raise argparse.ArgumentTypeError(f"directory not writable: {directory}")
    return text


def add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="artifact cache root (default: $REPRO_UOPT_CACHE_DIR "
        "or ~/.cache/repro-uopt)",
    )


def add_stats_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--emit-stats",
        metavar="FILE",
        type=stats_path,
        default=None,
        help="write a versioned JSON run ledger to FILE after the run",
    )


def cache_main(argv: list[str]) -> int:
    """The ``cache`` subcommand: stats / clear."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness cache",
        description="Inspect or reset the artifact cache.",
    )
    parser.add_argument("action", choices=("stats", "clear"))
    add_cache_flags(parser)
    add_stats_flags(parser)
    args = parser.parse_args(argv)

    store = ArtifactStore(args.cache_dir)
    if args.action == "stats":
        _print_stats(store)
    else:
        removed = store.clear()
        print(f"removed {removed} entries from {store.root}")
    if args.emit_stats:
        emit_run_ledger(
            args.emit_stats, argv, [f"cache-{args.action}"], store=store
        )
    return 0


def _print_stats(store: ArtifactStore) -> None:
    stats = store.stats()
    print(f"cache root   {stats['root']}")
    for kind, info in stats["kinds"].items():
        mb = info["bytes"] / (1024 * 1024)
        print(f"{kind:<12} {info['entries']} entries, {mb:.2f} MB")
    total_mb = stats["bytes"] / (1024 * 1024)
    print(f"total        {stats['entries']} entries, {total_mb:.2f} MB")


def stats_main(argv: list[str]) -> int:
    """The ``stats`` subcommand: pretty-print a run ledger."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness stats",
        description="Pretty-print a run ledger written by --emit-stats.",
    )
    parser.add_argument("ledger", help="path to a run-ledger JSON file")
    args = parser.parse_args(argv)
    try:
        ledger = read_ledger(args.ledger)
    except (OSError, LedgerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(format_ledger(ledger))
    except BrokenPipeError:  # e.g. `stats run.json | head`
        sys.stderr.close()  # suppress the interpreter's epilogue warning
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "cache":
        return cache_main(argv[1:])
    if argv and argv[0] == "stats":
        return stats_main(argv[1:])
    if argv and argv[0] == "fuzz":
        from repro.fuzz.cli import fuzz_main

        return fuzz_main(argv[1:])
    if argv and argv[0] == "scenarios":
        from repro.scenarios.cli import scenarios_main

        return scenarios_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=EXPERIMENTS + ("all",),
        help="which tables/figures to regenerate ('cache' subcommand: "
        "stats/clear the artifact store)",
    )
    parser.add_argument(
        "--scale", type=positive_int, default=None, help="workload scale factor"
    )
    parser.add_argument("--seed", type=int, default=1, help="workload data seed")
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        help="worker processes for the experiment matrix (1 = serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the artifact store: recompute everything, write nothing",
    )
    add_cache_flags(parser)
    add_stats_flags(parser)
    args = parser.parse_args(argv)

    store = None if args.no_cache else ArtifactStore(args.cache_dir)
    matrix = figures.ResultMatrix(
        scale=args.scale, seed=args.seed, store=store, jobs=args.jobs
    )
    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    try:
        for name in names:
            print(_render(name, matrix))
            print()
    except (WorkloadError, MatrixTaskError) as exc:
        # A matrix cell raises the overrun as a MatrixTaskError's cause.
        overrun = exc.__cause__ if isinstance(exc, MatrixTaskError) else exc
        if not isinstance(overrun, WorkloadError):
            raise
        print(f"error: WorkloadError: {overrun}", file=sys.stderr)
        return 1
    print(matrix.summary(), file=sys.stderr)
    if args.emit_stats:
        emit_run_ledger(args.emit_stats, argv, names, matrix)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
