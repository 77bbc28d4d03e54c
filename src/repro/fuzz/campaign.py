"""Seed-derived, byte-reproducible fuzz campaigns.

A campaign is a range of *program indices*; each index derives its own
program seed from the campaign seed via SHA-256, so

* the campaign is reproducible from ``(seed, iterations)`` alone — the
  derivation has no platform-, hash-randomization-, or
  schedule-dependent inputs;
* any single program can be regenerated without replaying the campaign
  (``derive_program_seed(seed, index)``);
* parallel execution cannot perturb results: indices are chunked, the
  chunks fan out over :func:`repro.artifacts.runner.run_tasks` (the
  same ordered pool the experiment matrix uses), and summaries merge in
  chunk order.

The :class:`CampaignResult` carries a digest over every per-program
summary; two runs with the same seed and count produce the same digest
whatever ``--jobs`` was, which the determinism tests assert.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from repro.artifacts.runner import TaskError, run_tasks
from repro.metrics import MetricsRegistry

from repro.fuzz.config_oracle import (
    ConfigDivergence,
    ConfigOracleConfig,
    run_config_differential,
)
from repro.fuzz.configgen import config_to_json, generate_config
from repro.fuzz.generator import (
    FuzzProgram,
    GeneratorConfig,
    generate_program,
    program_to_json,
)
from repro.fuzz.oracle import Divergence, OracleConfig, run_differential

#: Programs per worker task: large enough to amortize process dispatch,
#: small enough that --duration budgets stay responsive.
DEFAULT_CHUNK = 25

#: (program, config) pairs per worker task: each pair runs ~7 full
#: simulations, so chunks are smaller than the program campaign's.
DEFAULT_CONFIG_CHUNK = 5


def derive_program_seed(campaign_seed: int, index: int) -> int:
    """Stable per-program seed (independent of platform and run shape)."""
    material = f"repro.fuzz:{campaign_seed}:{index}".encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: how many programs, from which seed, how parallel."""

    seed: int = 1
    iterations: int = 1000
    duration: float | None = None  # seconds; overrides iterations when set
    jobs: int = 1
    chunk_size: int = DEFAULT_CHUNK
    generator: GeneratorConfig = GeneratorConfig()
    oracle: OracleConfig = OracleConfig()


@dataclass
class DivergentProgram:
    """A program the oracle flagged, with everything needed to replay it."""

    index: int
    program_seed: int
    genome: FuzzProgram
    divergences: list[Divergence]


@dataclass
class CampaignResult:
    """Aggregate outcome of one campaign."""

    seed: int
    programs: int = 0
    frames: int = 0
    instances: int = 0
    verified: int = 0
    unsafe_skips: int = 0
    trace_records: int = 0
    seconds: float = 0.0
    jobs: int = 1
    digest: str = ""
    divergent: list[DivergentProgram] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergent

    @property
    def programs_per_sec(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.programs / self.seconds


class FuzzTaskError(TaskError):
    """A campaign chunk failed outside the oracle's own checks."""

    def __init__(self, first_index: int, original: BaseException):
        self.first_index = first_index
        super().__init__(f"fuzz chunk starting at program {first_index}", original)


def _chunk_worker(payload: dict):
    """Run one chunk of program indices (executes in a pool worker)."""
    registry = MetricsRegistry()
    generator_config = payload["generator"]
    oracle_config = payload["oracle"]
    campaign_seed = payload["seed"]
    summaries = []
    for index in payload["indices"]:
        program_seed = derive_program_seed(campaign_seed, index)
        genome = generate_program(program_seed, generator_config)
        report = run_differential(genome, oracle_config, metrics=registry)
        summary = {
            "index": index,
            "program_seed": program_seed,
            "trace_length": report.trace_length,
            "frames": report.frames_constructed,
            "instances": report.instances_committed,
            "verified": report.instances_verified,
            "unsafe_skips": report.unsafe_skips,
            "divergences": [d.to_json() for d in report.divergences],
        }
        if report.divergences:
            summary["genome"] = program_to_json(genome)
        summaries.append(summary)
    return summaries, registry.snapshot()


def _chunks(start: int, count: int, chunk_size: int) -> list[list[int]]:
    indices = list(range(start, start + count))
    return [
        indices[i : i + chunk_size] for i in range(0, len(indices), chunk_size)
    ]


def run_campaign(
    config: CampaignConfig,
    metrics: MetricsRegistry | None = None,
    progress=None,
) -> CampaignResult:
    """Run a campaign; returns aggregate + divergent programs.

    ``progress(programs_done, total_or_None)`` is called after every
    fan-out batch (for CLI status lines).  With ``duration`` set, whole
    batches run until the time budget is spent; the program count then
    depends on machine speed but each *program's* outcome is still
    seed-deterministic.
    """
    result = CampaignResult(seed=config.seed, jobs=config.jobs)
    start = time.perf_counter()
    summary_hash = hashlib.sha256()
    next_index = 0

    def run_batch(count: int) -> None:
        nonlocal next_index
        chunks = _chunks(next_index, count, config.chunk_size)
        next_index += count
        payloads = [
            {
                "seed": config.seed,
                "indices": chunk,
                "generator": config.generator,
                "oracle": config.oracle,
            }
            for chunk in chunks
        ]
        outputs, effective_jobs = run_tasks(
            _chunk_worker,
            payloads,
            jobs=config.jobs,
            registry=metrics,
            wrap_error=lambda payload, exc: FuzzTaskError(
                payload["indices"][0], exc
            ),
        )
        result.jobs = effective_jobs
        for summaries, snapshot in outputs:
            if metrics is not None and snapshot is not None:
                metrics.merge(snapshot)
            for summary in summaries:
                result.programs += 1
                result.frames += summary["frames"]
                result.instances += summary["instances"]
                result.verified += summary["verified"]
                result.unsafe_skips += summary["unsafe_skips"]
                result.trace_records += summary["trace_length"]
                genome_json = summary.pop("genome", None)
                summary_hash.update(
                    json.dumps(
                        summary, sort_keys=True, separators=(",", ":")
                    ).encode()
                )
                if summary["divergences"]:
                    result.divergent.append(
                        DivergentProgram(
                            index=summary["index"],
                            program_seed=summary["program_seed"],
                            genome=_genome_back(genome_json),
                            divergences=[
                                Divergence.from_json(d)
                                for d in summary["divergences"]
                            ],
                        )
                    )

    if config.duration is not None:
        batch = max(config.chunk_size * max(1, config.jobs), 1)
        while time.perf_counter() - start < config.duration:
            run_batch(batch)
            if progress is not None:
                progress(result.programs, None)
    else:
        run_batch(config.iterations)
        if progress is not None:
            progress(result.programs, config.iterations)

    result.seconds = time.perf_counter() - start
    result.digest = summary_hash.hexdigest()
    if metrics is not None:
        metrics.counter("fuzz.campaign_programs").inc(result.programs)
        metrics.gauge("fuzz.programs_per_sec").set(result.programs_per_sec)
    return result


def _genome_back(genome_json: dict | None) -> FuzzProgram:
    from repro.fuzz.generator import program_from_json

    if genome_json is None:  # pragma: no cover - defensive
        raise ValueError("divergent summary carried no genome")
    return program_from_json(genome_json)


# -------------------------------------------------------- config campaigns


def derive_config_seed(campaign_seed: int, index: int) -> int:
    """Stable per-pair config seed, independent of the program seed.

    A distinct derivation domain ("config") keeps the config axis
    decorrelated from the program axis: pair *i* runs program
    ``derive_program_seed(seed, i)`` under config
    ``derive_config_seed(seed, i)``.
    """
    material = f"repro.fuzz.config:{campaign_seed}:{index}".encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


@dataclass(frozen=True)
class ConfigCampaignConfig:
    """One config-axis campaign: (program, config) pairs from one seed."""

    seed: int = 1
    iterations: int = 200
    duration: float | None = None  # seconds; overrides iterations when set
    jobs: int = 1
    chunk_size: int = DEFAULT_CONFIG_CHUNK
    generator: GeneratorConfig = GeneratorConfig()
    oracle: ConfigOracleConfig = ConfigOracleConfig()


@dataclass
class DivergentPair:
    """A (program, config) pair the oracle flagged, replayable as-is."""

    index: int
    program_seed: int
    config_seed: int
    genome: FuzzProgram
    config_json: dict
    divergences: list[ConfigDivergence]


@dataclass
class ConfigCampaignResult:
    """Aggregate outcome of one config-axis campaign."""

    seed: int
    pairs: int = 0
    simulations: int = 0
    frames_fetched: int = 0
    frames_fired: int = 0
    trace_records: int = 0
    optimized_slower: int = 0
    seconds: float = 0.0
    jobs: int = 1
    digest: str = ""
    divergent: list[DivergentPair] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergent

    @property
    def pairs_per_sec(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.pairs / self.seconds


class ConfigFuzzTaskError(TaskError):
    """A config campaign chunk failed outside the oracle's own checks."""

    def __init__(self, first_index: int, original: BaseException):
        self.first_index = first_index
        super().__init__(
            f"config fuzz chunk starting at pair {first_index}", original
        )


def config_pair_summary(
    campaign_seed: int,
    index: int,
    generator: GeneratorConfig | None = None,
    oracle: ConfigOracleConfig | None = None,
    metrics: MetricsRegistry | None = None,
) -> dict:
    """Generate, differential-test, and summarize one (program, config) pair.

    The single source of truth for a pair's summary dict: every chunk
    worker calls this, which is what keeps the campaign digest
    independent of how pairs were chunked.  Divergent pairs carry their
    ``genome``/``config`` JSON (popped before hashing) so the caller can
    rebuild the replayable case.
    """
    generator = generator if generator is not None else GeneratorConfig()
    oracle = oracle if oracle is not None else ConfigOracleConfig()
    program_seed = derive_program_seed(campaign_seed, index)
    config_seed = derive_config_seed(campaign_seed, index)
    genome = generate_program(program_seed, generator)
    processor = generate_config(config_seed)
    report = run_config_differential(genome, processor, oracle, metrics=metrics)
    summary = {
        "index": index,
        "program_seed": program_seed,
        "config_seed": config_seed,
        "trace_length": report.trace_length,
        "simulations": report.simulations,
        "frames_fetched": report.frames_fetched,
        "frames_fired": report.frames_fired,
        "optimized_slower": report.optimized_slower,
        "divergences": [d.to_json() for d in report.divergences],
    }
    if report.divergences:
        summary["genome"] = program_to_json(genome)
        summary["config"] = config_to_json(processor)
    return summary


def _config_chunk_worker(payload: dict):
    """Run one chunk of (program, config) pair indices (pool worker)."""
    registry = MetricsRegistry()
    summaries = [
        config_pair_summary(
            payload["seed"],
            index,
            generator=payload["generator"],
            oracle=payload["oracle"],
            metrics=registry,
        )
        for index in payload["indices"]
    ]
    return summaries, registry.snapshot()


def run_config_campaign(
    config: ConfigCampaignConfig,
    metrics: MetricsRegistry | None = None,
    progress=None,
) -> ConfigCampaignResult:
    """Run a config-axis campaign; same reproducibility contract as
    :func:`run_campaign` — the digest depends only on (seed, count)."""
    result = ConfigCampaignResult(seed=config.seed, jobs=config.jobs)
    start = time.perf_counter()
    summary_hash = hashlib.sha256()
    next_index = 0

    def fold(summary: dict) -> None:
        result.pairs += 1
        result.simulations += summary["simulations"]
        result.frames_fetched += summary["frames_fetched"]
        result.frames_fired += summary["frames_fired"]
        result.trace_records += summary["trace_length"]
        result.optimized_slower += int(summary["optimized_slower"])
        genome_json = summary.pop("genome", None)
        config_json = summary.pop("config", None)
        summary_hash.update(
            json.dumps(summary, sort_keys=True, separators=(",", ":")).encode()
        )
        if summary["divergences"]:
            result.divergent.append(
                DivergentPair(
                    index=summary["index"],
                    program_seed=summary["program_seed"],
                    config_seed=summary["config_seed"],
                    genome=_genome_back(genome_json),
                    config_json=config_json,
                    divergences=[
                        ConfigDivergence.from_json(d)
                        for d in summary["divergences"]
                    ],
                )
            )

    def run_batch(count: int) -> None:
        nonlocal next_index
        chunks = _chunks(next_index, count, config.chunk_size)
        next_index += count
        payloads = [
            {
                "seed": config.seed,
                "indices": chunk,
                "generator": config.generator,
                "oracle": config.oracle,
            }
            for chunk in chunks
        ]
        outputs, effective_jobs = run_tasks(
            _config_chunk_worker,
            payloads,
            jobs=config.jobs,
            registry=metrics,
            wrap_error=lambda payload, exc: ConfigFuzzTaskError(
                payload["indices"][0], exc
            ),
        )
        result.jobs = effective_jobs
        for summaries, snapshot in outputs:
            if metrics is not None and snapshot is not None:
                metrics.merge(snapshot)
            for summary in summaries:
                fold(summary)

    if config.duration is not None:
        batch = max(config.chunk_size * max(1, config.jobs), 1)
        while time.perf_counter() - start < config.duration:
            run_batch(batch)
            if progress is not None:
                progress(result.pairs, None)
    else:
        run_batch(config.iterations)
        if progress is not None:
            progress(result.pairs, config.iterations)

    result.seconds = time.perf_counter() - start
    result.digest = summary_hash.hexdigest()
    if metrics is not None:
        metrics.counter("fuzz.config.campaign_pairs").inc(result.pairs)
        metrics.gauge("fuzz.config.pairs_per_sec").set(result.pairs_per_sec)
    return result
