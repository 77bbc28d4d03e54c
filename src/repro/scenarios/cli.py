"""The ``scenarios`` subcommand family.

::

    python -m repro.harness scenarios characterize gzip
    python -m repro.harness scenarios characterize bzip2 --config RP --json

``characterize`` prints the reuse/loop/bias/latency report for any
workload.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.artifacts.store import ArtifactStore
from repro.harness.cli import add_cache_flags, add_stats_flags, positive_int
from repro.metrics import emit_run_ledger
from repro.workloads import WorkloadError


def scenarios_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness scenarios",
        description="Trace characterization.",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    char_p = sub.add_parser(
        "characterize", help="reuse/loop/bias/latency report"
    )
    char_p.add_argument("workload", help="workload name")
    char_p.add_argument(
        "--config", default="RPO",
        help="replay-frontend config name (RP or RPO; default RPO)",
    )
    char_p.add_argument("--scale", type=positive_int, default=None)
    char_p.add_argument("--seed", type=int, default=1)
    char_p.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    add_cache_flags(char_p)
    add_stats_flags(char_p)
    args = parser.parse_args(argv)

    store = ArtifactStore(args.cache_dir)
    status = _characterize(args, store)
    if args.emit_stats:
        emit_run_ledger(
            args.emit_stats, argv, [f"scenarios-{args.action}"], store=store
        )
    return status


def _characterize(args, store: ArtifactStore) -> int:
    from repro.artifacts.runner import compute_trace
    from repro.harness.experiment import CONFIGS
    from repro.scenarios.characterize import (
        characterize,
        format_characterization,
    )

    config = CONFIGS.get(args.config)
    if config is None or config.frontend != "replay":
        print(
            f"error: --config must be a replay config (RP or RPO); "
            f"got {args.config!r}",
            file=sys.stderr,
        )
        return 2
    try:
        trace = compute_trace(
            args.workload, args.scale, args.seed, store=store
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except WorkloadError as exc:
        print(f"error: WorkloadError: {exc}", file=sys.stderr)
        return 1
    report = characterize(trace, config, workload_name=args.workload)
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(format_characterization(report))
    return 0
