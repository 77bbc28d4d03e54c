"""Seed-derived, byte-reproducible fuzz campaigns on either axis.

A campaign is a range of *indices* run along one :class:`Axis`:

* the **program axis** — index *i* generates the program
  ``derive_program_seed(seed, i)`` and runs it through the semantic
  differential oracle;
* the **(program, config) axis** — index *i* runs that same program
  under the processor config ``derive_config_seed(seed, i)`` through
  the config-differential oracle.

A :class:`CampaignConfig` names its axis.  Seeds derive from the
campaign seed via SHA-256, so

* the campaign is reproducible from ``(axis, seed, iterations)``
  alone — the derivation has no platform-, hash-randomization-, or
  schedule-dependent inputs;
* any single index can be regenerated without replaying the campaign;
* parallel execution cannot perturb results: indices are chunked, the
  chunks fan out over :func:`repro.artifacts.runner.run_tasks` (the
  same ordered pool the experiment matrix uses), and summaries merge in
  chunk order.

The :class:`CampaignResult` carries a digest over every per-index
summary; two runs with the same seed and count produce the same digest
whatever ``--jobs`` was, which the determinism tests assert.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.artifacts.runner import TaskError, run_tasks
from repro.metrics import MetricsRegistry

from repro.fuzz.config_oracle import ConfigDivergence, run_config_differential
from repro.fuzz.configgen import config_to_json, generate_config
from repro.fuzz.generator import (
    FuzzProgram,
    generate_program,
    program_from_json,
    program_to_json,
)
from repro.fuzz.oracle import Divergence, run_differential


def derive_program_seed(campaign_seed: int, index: int) -> int:
    """Stable per-program seed (independent of platform and run shape)."""
    material = f"repro.fuzz:{campaign_seed}:{index}".encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def derive_config_seed(campaign_seed: int, index: int) -> int:
    """Stable per-pair config seed, independent of the program seed.

    A distinct derivation domain ("config") keeps the config axis
    decorrelated from the program axis: pair *i* runs program
    ``derive_program_seed(seed, i)`` under config
    ``derive_config_seed(seed, i)``.
    """
    material = f"repro.fuzz.config:{campaign_seed}:{index}".encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def summarize_program(
    campaign_seed: int, index: int, metrics: MetricsRegistry | None
) -> dict:
    """Generate, differential-test, and summarize one program.

    Summaries are the single source of truth the campaign digest hashes,
    which is what keeps it independent of how indices were chunked.
    Divergent programs carry their ``genome`` JSON (popped before
    hashing) so the caller can rebuild the replayable case.
    """
    program_seed = derive_program_seed(campaign_seed, index)
    genome = generate_program(program_seed)
    report = run_differential(genome, metrics=metrics)
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
    return summary


def summarize_pair(
    campaign_seed: int, index: int, metrics: MetricsRegistry | None
) -> dict:
    """Generate, differential-test, and summarize one (program, config)
    pair; divergent pairs also carry their ``config`` JSON."""
    program_seed = derive_program_seed(campaign_seed, index)
    config_seed = derive_config_seed(campaign_seed, index)
    genome = generate_program(program_seed)
    processor = generate_config(config_seed)
    report = run_config_differential(genome, processor, metrics=metrics)
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


@dataclass(frozen=True)
class Axis:
    """What a campaign fuzzes: how one index is summarized and folded."""

    unit: str  # what one index is: "program" or "pair"
    # Names the campaign metrics <prefix>campaign_<unit>s and
    # <prefix><unit>s_per_sec.
    metric_prefix: str
    summarize: Callable[..., dict]  # (campaign_seed, index, metrics)
    fields: tuple[str, ...]  # summary fields summed into CampaignResult.totals
    divergence: type  # rebuilds the summary's divergences from JSON
    iterations: int  # default campaign size
    chunk_size: int  # indices per worker task


PROGRAM_AXIS = Axis(
    unit="program",
    metric_prefix="fuzz.",
    summarize=summarize_program,
    fields=("trace_length", "frames", "instances", "verified", "unsafe_skips"),
    divergence=Divergence,
    iterations=1000,
    # Large enough to amortize process dispatch.
    chunk_size=25,
)

CONFIG_AXIS = Axis(
    unit="pair",
    metric_prefix="fuzz.config.",
    summarize=summarize_pair,
    fields=(
        "trace_length",
        "simulations",
        "frames_fetched",
        "frames_fired",
        "optimized_slower",
    ),
    divergence=ConfigDivergence,
    iterations=200,
    # Each pair runs 7 timing models over 3 fetch streams (one per front
    # end), so chunks are smaller.
    chunk_size=5,
)


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: its axis, how many indices, from which seed, how
    parallel.

    ``iterations`` and ``chunk_size`` left at ``None`` take the axis
    defaults.
    """

    seed: int = 1
    iterations: int | None = None
    jobs: int = 1
    chunk_size: int | None = None
    axis: Axis = PROGRAM_AXIS

    def __post_init__(self) -> None:
        if self.iterations is None:
            object.__setattr__(self, "iterations", self.axis.iterations)
        if self.chunk_size is None:
            object.__setattr__(self, "chunk_size", self.axis.chunk_size)


#: A campaign on the (program, config) axis.
ConfigCampaignConfig = partial(CampaignConfig, axis=CONFIG_AXIS)


@dataclass
class DivergentCase:
    """An index the oracle flagged, with everything needed to replay it.

    ``config_seed`` and ``config_json`` are set on the (program, config)
    axis only.
    """

    index: int
    program_seed: int
    genome: FuzzProgram
    divergences: list
    config_seed: int | None = None
    config_json: dict | None = None


@dataclass
class CampaignResult:
    """Aggregate outcome of one campaign."""

    axis: Axis
    seed: int
    count: int = 0  # programs or pairs run
    totals: dict[str, int] = field(default_factory=dict)  # axis.fields, summed
    seconds: float = 0.0
    jobs: int = 1
    digest: str = ""
    divergent: list[DivergentCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergent

    @property
    def rate(self) -> float:
        """Programs or pairs per second."""
        if self.seconds <= 0:
            return 0.0
        return self.count / self.seconds


def _chunk_worker(payload: dict):
    """Summarize one chunk of indices (executes in a pool worker)."""
    registry = MetricsRegistry()
    summarize = payload["summarize"]
    summaries = [
        summarize(payload["seed"], index, registry) for index in payload["indices"]
    ]
    return summaries, registry.snapshot()


def run_campaign(
    config: CampaignConfig, metrics: MetricsRegistry | None = None
) -> CampaignResult:
    """Run a campaign on its axis; returns the aggregate and every
    divergent case."""
    axis = config.axis
    result = CampaignResult(
        axis=axis, seed=config.seed, totals=dict.fromkeys(axis.fields, 0)
    )
    start = time.perf_counter()
    step = config.chunk_size
    payloads = [
        {
            "seed": config.seed,
            "indices": list(range(first, min(first + step, config.iterations))),
            "summarize": axis.summarize,
        }
        for first in range(0, config.iterations, step)
    ]
    outputs, result.jobs = run_tasks(
        _chunk_worker,
        payloads,
        lambda payload, exc: TaskError(
            f"fuzz chunk starting at {axis.unit} {payload['indices'][0]}", exc
        ),
        jobs=config.jobs,
        registry=metrics,
    )
    summary_hash = hashlib.sha256()
    for summaries, snapshot in outputs:
        if metrics is not None:
            metrics.merge(snapshot)
        for summary in summaries:
            result.count += 1
            for name in axis.fields:
                result.totals[name] += summary[name]
            genome_json = summary.pop("genome", None)
            config_json = summary.pop("config", None)
            summary_hash.update(
                json.dumps(summary, sort_keys=True, separators=(",", ":")).encode()
            )
            if summary["divergences"]:
                result.divergent.append(
                    DivergentCase(
                        index=summary["index"],
                        program_seed=summary["program_seed"],
                        genome=program_from_json(genome_json),
                        divergences=[
                            axis.divergence.from_json(d)
                            for d in summary["divergences"]
                        ],
                        config_seed=summary.get("config_seed"),
                        config_json=config_json,
                    )
                )

    result.seconds = time.perf_counter() - start
    result.digest = summary_hash.hexdigest()
    if metrics is not None:
        prefix, unit = axis.metric_prefix, axis.unit
        metrics.counter(f"{prefix}campaign_{unit}s").inc(result.count)
        metrics.gauge(f"{prefix}{unit}s_per_sec").set(result.rate)
    return result


#: The (program, config) axis runs through the same engine.
run_config_campaign = run_campaign
