"""The ``fuzz`` subcommand family.

::

    python -m repro.harness fuzz run --seed 1 --iterations 10000 --jobs 4
    python -m repro.harness fuzz run --seed 7 --duration 30
    python -m repro.harness fuzz config run --seed 1 --iterations 200
    python -m repro.harness fuzz repro 3f2a91c0
    python -m repro.harness fuzz corpus ls

``run`` executes a campaign; any divergent program is minimized by the
delta-debugging shrinker and stored in the artifact corpus, and the
command exits nonzero.  ``config run`` does the same on the *config
axis*: every iteration pairs a generated program with a generated
``ProcessorConfig`` and drives the pair through the config-differential
oracle (template-vs-reference A/B, retire conservation, widening
monotonicity); divergent pairs shrink on both axes.  ``repro`` replays
a stored case (by id prefix) through whichever oracle produced it —
deterministic by construction, since the case carries the genome (and,
for config cases, the config document) and rendering is seed-free.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.artifacts.store import ArtifactStore
from repro.metrics import build_run_ledger, get_registry, profiled, write_ledger

from repro.fuzz.campaign import (
    CampaignConfig,
    ConfigCampaignConfig,
    run_campaign,
    run_config_campaign,
)
from repro.fuzz.corpus import CorpusError, FuzzCorpus
from repro.fuzz.oracle import OracleConfig, run_differential
from repro.fuzz.shrink import shrink_config_case, shrink_program


def fuzz_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness fuzz",
        description="Differential fuzzing of optimizer/frame semantics.",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    run_p = sub.add_parser("run", help="run a fuzz campaign")
    run_p.add_argument("--seed", type=int, default=1, help="campaign seed")
    group = run_p.add_mutually_exclusive_group()
    group.add_argument(
        "--iterations", type=int, default=1000, help="programs to run"
    )
    group.add_argument(
        "--duration",
        type=float,
        default=None,
        help="run whole batches until this many seconds have elapsed",
    )
    run_p.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = serial)"
    )
    run_p.add_argument(
        "--no-shrink",
        action="store_true",
        help="store divergent programs unminimized",
    )

    config_p = sub.add_parser(
        "config", help="config-axis differential fuzzing"
    )
    config_sub = config_p.add_subparsers(dest="config_action", required=True)
    config_run_p = config_sub.add_parser(
        "run", help="run a config-axis fuzz campaign"
    )
    config_run_p.add_argument(
        "--seed", type=int, default=1, help="campaign seed"
    )
    config_group = config_run_p.add_mutually_exclusive_group()
    config_group.add_argument(
        "--iterations",
        type=int,
        default=200,
        help="(program, config) pairs to run",
    )
    config_group.add_argument(
        "--duration",
        type=float,
        default=None,
        help="run whole batches until this many seconds have elapsed",
    )
    config_run_p.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = serial)"
    )
    config_run_p.add_argument(
        "--no-shrink",
        action="store_true",
        help="store divergent pairs unminimized",
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
        p.add_argument(
            "--profile",
            action="store_true",
            help="wrap the run in cProfile and print hotspots to stderr",
        )

    args = parser.parse_args(argv)
    store = ArtifactStore(args.cache_dir)
    with profiled(enabled=args.profile):
        if args.action == "run":
            status = _run(args, store)
        elif args.action == "config":
            status = _config_run(args, store)
        elif args.action == "repro":
            status = _repro(args, store)
        else:
            status = _corpus(args, store)
    if args.emit_stats:
        _emit_ledger(argv, args, store)
    return status


def _run(args, store: ArtifactStore) -> int:
    config = CampaignConfig(
        seed=args.seed,
        iterations=args.iterations,
        duration=args.duration,
        jobs=args.jobs,
    )
    registry = get_registry()

    def progress(done: int, total: int | None) -> None:
        target = f"/{total}" if total else ""
        print(f"[fuzz] {done}{target} programs", file=sys.stderr)

    result = run_campaign(config, metrics=registry, progress=progress)
    print(
        f"campaign seed={result.seed}: {result.programs} programs, "
        f"{result.frames} frames, {result.instances} frame instances "
        f"({result.verified} verified), {result.trace_records} trace records"
    )
    print(
        f"{result.seconds:.1f}s at jobs={result.jobs} = "
        f"{result.programs_per_sec:.1f} programs/sec"
    )
    print(f"campaign digest: {result.digest}")
    if result.ok:
        print("no divergences")
        return 0

    corpus = FuzzCorpus(store)
    print(f"{len(result.divergent)} divergent program(s):")
    for item in result.divergent:
        genome = item.genome
        note = ""
        if not args.no_shrink:
            shrunk = shrink_program(genome, config.oracle)
            genome = shrunk.genome
            note = (
                f" (shrunk {shrunk.original_ops}->{shrunk.final_ops} ops "
                f"in {shrunk.attempts} attempts)"
            )
        case_id = corpus.save_case(
            genome,
            item.divergences,
            found={
                "campaign_seed": result.seed,
                "index": item.index,
                "program_seed": item.program_seed,
            },
        )
        kinds = ", ".join(sorted({d.kind for d in item.divergences}))
        print(f"  {case_id[:16]}  seed={item.program_seed}  {kinds}{note}")
    return 1


def _config_run(args, store: ArtifactStore) -> int:
    from repro.fuzz.configgen import config_from_json, config_to_json

    config = ConfigCampaignConfig(
        seed=args.seed,
        iterations=args.iterations,
        duration=args.duration,
        jobs=args.jobs,
    )
    registry = get_registry()

    def progress(done: int, total: int | None) -> None:
        target = f"/{total}" if total else ""
        print(f"[fuzz.config] {done}{target} pairs", file=sys.stderr)

    result = run_config_campaign(config, metrics=registry, progress=progress)
    print(
        f"config campaign seed={result.seed}: {result.pairs} pairs, "
        f"{result.simulations} simulations, {result.frames_fired} frames "
        f"fired, {result.trace_records} trace records"
    )
    print(
        f"{result.seconds:.1f}s at jobs={result.jobs} = "
        f"{result.pairs_per_sec:.1f} pairs/sec "
        f"(optimized slower on {result.optimized_slower} pairs, advisory)"
    )
    print(f"campaign digest: {result.digest}")
    if result.ok:
        print("no divergences")
        return 0

    corpus = FuzzCorpus(store)
    print(f"{len(result.divergent)} divergent pair(s):")
    for item in result.divergent:
        genome = item.genome
        config_json = item.config_json
        note = ""
        if not args.no_shrink:
            shrunk = shrink_config_case(
                genome, config_from_json(config_json), config.oracle
            )
            genome = shrunk.genome
            config_json = config_to_json(shrunk.config)
            note = (
                f" (shrunk {shrunk.original_ops}->{shrunk.final_ops} ops, "
                f"{shrunk.original_fields}->{shrunk.final_fields} config "
                f"fields in {shrunk.attempts} attempts)"
            )
        case_id = corpus.save_config_case(
            genome,
            config_json,
            item.divergences,
            found={
                "campaign_seed": result.seed,
                "index": item.index,
                "program_seed": item.program_seed,
                "config_seed": item.config_seed,
            },
        )
        kinds = ", ".join(sorted({d.kind for d in item.divergences}))
        print(
            f"  {case_id[:16]}  seed={item.program_seed}"
            f"/{item.config_seed}  {kinds}{note}"
        )
    return 1


def _repro(args, store: ArtifactStore) -> int:
    corpus = FuzzCorpus(store)
    try:
        case = corpus.load_case(args.case)
    except CorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from repro.fuzz.generator import program_from_json

    genome = program_from_json(case["program"])
    if "config" in case:
        return _repro_config_case(case, genome)
    start = time.perf_counter()
    report = run_differential(genome, OracleConfig(), metrics=get_registry())
    elapsed = time.perf_counter() - start
    found = case.get("found", {})
    print(
        f"case seed={genome.seed} ops={len(genome.ops)} "
        f"(found in campaign {found.get('campaign_seed')}, "
        f"index {found.get('index')})"
    )
    print(
        f"trace={report.trace_length} frames={report.frames_constructed} "
        f"instances={report.instances_committed} "
        f"verified={report.instances_verified} in {elapsed:.2f}s"
    )
    if report.ok:
        print("no divergence: this case no longer reproduces (fixed)")
        return 0
    for d in report.divergences:
        where = f" @ {d.frame_pc:#x}" if d.frame_pc is not None else ""
        print(f"  [{d.variant}] {d.kind}{where}: {d.detail}")
    return 1


def _repro_config_case(case: dict, genome) -> int:
    """Replay a stored (program, config) pair through the config oracle."""
    from repro.fuzz.config_oracle import ConfigOracleConfig, run_config_differential
    from repro.fuzz.configgen import config_from_json

    processor = config_from_json(case["config"])
    start = time.perf_counter()
    report = run_config_differential(
        genome, processor, ConfigOracleConfig(), metrics=get_registry()
    )
    elapsed = time.perf_counter() - start
    found = case.get("found", {})
    fields = ", ".join(report.config_fields) or "all-default"
    print(
        f"config case seed={genome.seed} ops={len(genome.ops)} "
        f"(found in campaign {found.get('campaign_seed')}, "
        f"index {found.get('index')})"
    )
    print(f"config delta: {fields}")
    print(
        f"trace={report.trace_length} simulations={report.simulations} "
        f"frames_fired={report.frames_fired} in {elapsed:.2f}s"
    )
    if report.ok:
        print("no divergence: this case no longer reproduces (fixed)")
        return 0
    for d in report.divergences:
        print(f"  [{d.frontend}] {d.kind}: {d.detail}")
    return 1


def _corpus(args, store: ArtifactStore) -> int:
    cases = FuzzCorpus(store).list_cases()
    for case in cases:
        print(f"{case['id'][:16]}  {case['size_bytes']:>7,}B  {case['label']}")
    print(f"{len(cases)} fuzz case(s) in {store.root}")
    return 0


def _emit_ledger(argv: list[str], args, store: ArtifactStore) -> None:
    from repro.harness.cli import _NoMatrix

    ledger = build_run_ledger(
        argv, [f"fuzz-{args.action}"], _NoMatrix(store), registry=get_registry()
    )
    write_ledger(args.emit_stats, ledger)
    print(f"[repro.metrics] run ledger written to {args.emit_stats}", file=sys.stderr)
