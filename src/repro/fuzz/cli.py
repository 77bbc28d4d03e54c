"""The ``fuzz`` subcommand family.

::

    python -m repro.harness fuzz run --seed 1 --iterations 10000 --jobs 4
    python -m repro.harness fuzz config run --seed 1 --iterations 200
    python -m repro.harness fuzz repro 3f2a91c0
    python -m repro.harness fuzz corpus ls

``run`` executes a campaign; any divergent program is minimized by the
delta-debugging shrinker and stored in the artifact corpus, and the
command exits nonzero.  ``config run`` does the same on the *config
axis*: every iteration pairs a generated program with a generated
``ProcessorConfig`` and drives the pair through the config-differential
oracle (template-vs-reference A/B, retire conservation, the widening
check); divergent pairs shrink on both axes.  ``repro`` replays
a stored case (by id prefix) through whichever oracle produced it —
deterministic by construction, since the case carries the genome (and,
for config cases, the config document) and rendering is seed-free.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.artifacts.store import ArtifactStore
from repro.metrics import emit_run_ledger, get_registry

from repro.fuzz.campaign import (
    CONFIG_AXIS,
    PROGRAM_AXIS,
    CampaignConfig,
    run_campaign,
)
from repro.fuzz.config_oracle import run_config_differential
from repro.fuzz.configgen import config_from_json, config_to_json
from repro.fuzz.corpus import CorpusError, FuzzCorpus
from repro.fuzz.generator import program_from_json
from repro.fuzz.oracle import run_differential
from repro.fuzz.shrink import shrink_case
from repro.harness.cli import positive_int

#: Per-axis campaign report: the headline, and a suffix to the rate
#: line, both formatted over the result's totals.
_REPORT = {
    "program": (
        "campaign seed={seed}: {count} programs, {frames} frames, "
        "{instances} frame instances ({verified} verified), "
        "{trace_length} trace records",
        "",
    ),
    "pair": (
        "config campaign seed={seed}: {count} pairs, {simulations} "
        "simulations, {frames_fired} frames fired, {trace_length} trace "
        "records",
        " (optimized slower on {optimized_slower} pairs, advisory)",
    ),
}


def fuzz_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness fuzz",
        description="Differential fuzzing of optimizer/frame semantics.",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    run_p = sub.add_parser("run", help="run a fuzz campaign")
    config_p = sub.add_parser(
        "config", help="config-axis differential fuzzing"
    )
    config_sub = config_p.add_subparsers(dest="config_action", required=True)
    config_run_p = config_sub.add_parser(
        "run", help="run a config-axis fuzz campaign"
    )
    for p, axis in ((run_p, PROGRAM_AXIS), (config_run_p, CONFIG_AXIS)):
        p.set_defaults(axis=axis)
        p.add_argument("--seed", type=int, default=1, help="campaign seed")
        p.add_argument(
            "--iterations",
            type=positive_int,
            default=axis.iterations,
            help=f"{axis.unit}s to run",
        )
        p.add_argument(
            "--jobs", type=positive_int, default=1, help="worker processes (1 = serial)"
        )
        p.add_argument(
            "--no-shrink",
            action="store_true",
            help=f"store divergent {axis.unit}s unminimized",
        )

    repro_p = sub.add_parser("repro", help="replay a stored divergent case")
    repro_p.add_argument("case", help="case id (any unambiguous prefix)")

    corpus_p = sub.add_parser("corpus", help="inspect the fuzz corpus")
    corpus_p.add_argument("corpus_action", choices=("ls",))

    for p in (run_p, config_run_p, repro_p, corpus_p):
        p.add_argument(
            "--cache-dir",
            default=None,
            help="artifact cache root (default: $REPRO_UOPT_CACHE_DIR "
            "or ~/.cache/repro-uopt)",
        )
        p.add_argument(
            "--emit-stats",
            metavar="FILE",
            default=None,
            help="write a versioned JSON run ledger to FILE after the run",
        )

    args = parser.parse_args(argv)
    store = ArtifactStore(args.cache_dir)
    if args.action == "repro":
        status = _repro(args, store)
    elif args.action == "corpus":
        status = _corpus(args, store)
    else:
        status = _run(args, store)
    if args.emit_stats:
        emit_run_ledger(
            args.emit_stats, argv, [f"fuzz-{args.action}"], store=store
        )
    return status


def _run(args, store: ArtifactStore) -> int:
    """Run a campaign on either axis; shrink and store divergent cases."""
    config = CampaignConfig(
        seed=args.seed,
        iterations=args.iterations,
        jobs=args.jobs,
        axis=args.axis,
    )
    result = run_campaign(config, metrics=get_registry())
    unit = result.axis.unit
    headline, advisory = _REPORT[unit]
    print(headline.format(seed=result.seed, count=result.count, **result.totals))
    print(
        f"{result.seconds:.1f}s at jobs={result.jobs} = "
        f"{result.rate:.1f} {unit}s/sec" + advisory.format(**result.totals)
    )
    print(f"campaign digest: {result.digest}")
    if result.ok:
        print("no divergences")
        return 0

    corpus = FuzzCorpus(store)
    print(f"{len(result.divergent)} divergent {unit}(s):")
    for item in result.divergent:
        genome, config_json, note = item.genome, item.config_json, ""
        if not args.no_shrink:
            processor = config_from_json(config_json) if config_json else None
            shrunk = shrink_case(genome, processor)
            genome = shrunk.genome
            fields = ""
            if shrunk.config is not None:
                config_json = config_to_json(shrunk.config)
                fields = (
                    f", {shrunk.original_fields}->{shrunk.final_fields} "
                    "config fields"
                )
            note = (
                f" (shrunk {shrunk.original_ops}->{shrunk.final_ops} ops"
                f"{fields} in {shrunk.attempts} attempts)"
            )
        found = {
            "campaign_seed": result.seed,
            "index": item.index,
            "program_seed": item.program_seed,
        }
        seeds = str(item.program_seed)
        if item.config_seed is not None:
            found["config_seed"] = item.config_seed
            seeds += f"/{item.config_seed}"
        case_id = corpus.save_case(
            genome, item.divergences, found=found, config_json=config_json
        )
        kinds = ", ".join(sorted({d.kind for d in item.divergences}))
        print(f"  {case_id[:16]}  seed={seeds}  {kinds}{note}")
    return 1


def _repro(args, store: ArtifactStore) -> int:
    """Replay a stored case through the oracle that produced it."""
    try:
        case = FuzzCorpus(store).load_case(args.case)
    except CorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    genome = program_from_json(case["program"])
    found = case.get("found", {})
    origin = (
        f"seed={genome.seed} ops={len(genome.ops)} "
        f"(found in campaign {found.get('campaign_seed')}, "
        f"index {found.get('index')})"
    )
    start = time.perf_counter()
    if "config" not in case:
        report = run_differential(genome, metrics=get_registry())
        elapsed = time.perf_counter() - start
        print(f"case {origin}")
        print(
            f"trace={report.trace_length} frames={report.frames_constructed} "
            f"instances={report.instances_committed} "
            f"verified={report.instances_verified} in {elapsed:.2f}s"
        )
        lines = [
            f"[{d.variant}] {d.kind}"
            + (f" @ {d.frame_pc:#x}" if d.frame_pc is not None else "")
            + f": {d.detail}"
            for d in report.divergences
        ]
    else:
        report = run_config_differential(
            genome, config_from_json(case["config"]), metrics=get_registry()
        )
        elapsed = time.perf_counter() - start
        print(f"config case {origin}")
        print(f"config delta: {', '.join(report.config_fields) or 'all-default'}")
        print(
            f"trace={report.trace_length} simulations={report.simulations} "
            f"frames_fired={report.frames_fired} in {elapsed:.2f}s"
        )
        lines = [
            f"[{d.frontend}] {d.kind}: {d.detail}" for d in report.divergences
        ]
    if report.ok:
        print("no divergence: this case no longer reproduces (fixed)")
        return 0
    for line in lines:
        print(f"  {line}")
    return 1


def _corpus(args, store: ArtifactStore) -> int:
    cases = FuzzCorpus(store).list_cases()
    for case in cases:
        print(f"{case['id'][:16]}  {case['size_bytes']:>7,}B  {case['label']}")
    print(f"{len(cases)} fuzz case(s) in {store.root}")
    return 0
