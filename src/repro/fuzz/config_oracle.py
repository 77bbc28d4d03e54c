"""The config-differential oracle: one (program, config) pair, checked.

Where :mod:`repro.fuzz.oracle` checks optimizer *semantics* (frames must
compute what the program computes), this oracle checks the *timing
model* across the configuration axis.  A sampled
:class:`~repro.timing.config.ProcessorConfig` is driven through the
paper's front ends, each one fetch stream (:func:`run_lockstep`): one
sequencer feeds the reference scheduling model, which leads, and the
template model and, on IC, the widened model run as shadows on the same
blocks.  Three hard check families must hold:

* **schedule A/B** — for every front end (IC, RP, RPO), the template
  fast path must produce a :class:`SimResult` *identical* to the
  object-walking reference path, and their cycles must agree at every
  block boundary (so the template model saw the blocks it would have
  fetched alone), whatever the geometry.
* **retire conservation** — every front end must retire exactly the
  emulated trace: ``x86_retired == len(trace)`` whatever the config.
* **widening** — the ICache front end with every *capacity* resource
  doubled (FU pools, retire width, window; no sequencer reads them) is
  checked not to cost cycles.  This is not an invariant: greedy issue
  makes extra capacity cost cycles on some pairs (Graham's timing
  anomaly; config-fuzz seed 308, pair 135: 791 → 809 cycles), and
  ROADMAP item 1 replaces it with a sound dataflow bound.  Fetch and
  decode widths change fetch grouping, and rePLay frame availability
  is cycle-dependent, so neither is widened.

Any crash inside a front end's lockstep is itself a finding
(``sim-crash``, one per front end): configs are valid by construction,
so nothing downstream may throw.

**Deliberately not a hard check:** "optimized IPC >= unoptimized".
Measured over seeded samples it fails ~40% of the time for legitimate
model reasons — the optimization queue's modeled latency shifts which
frames are ready when (RP and RPO dispatch *different* frame sequences),
and optimization that removes loads changes D-cache contents, so a
later load can miss where the unoptimized run hit.  The comparison is
recorded as advisory counters (``fuzz.config.optimized_slower`` /
``faster``) instead, on assertion-free pairs only.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from itertools import count
from types import SimpleNamespace

from repro.harness.experiment import (
    CONFIGS,
    ExperimentConfig,
    make_sequencer,
    publish_metrics,
)
from repro.metrics import get_registry
from repro.timing.config import ProcessorConfig
from repro.timing.pipeline import PipelineModel, SimResult
from repro.trace.injector import inject_once
from repro.trace.stream import DynamicTrace
from repro.x86.emulator import Emulator

from repro.fuzz.configgen import config_delta
from repro.fuzz.generator import FuzzProgram, render_program
from repro.fuzz.oracle import CONSTRUCTOR, MAX_INSTRUCTIONS

#: Front ends every pair is simulated under.  TC is omitted: it shares
#: the frame path's timing code (same A/B machinery), and a fourth fetch
#: stream costs +6% to +21% oracle time (four 200-pair campaigns).
FRONTENDS = ("IC", "RP", "RPO")


@dataclass
class ConfigDivergence:
    """One observed timing-model disagreement on a (program, config) pair."""

    kind: str  # schedule-ab | retire-conservation | widening | sim-crash
    frontend: str
    detail: str

    def to_json(self) -> dict:
        return {"kind": self.kind, "frontend": self.frontend, "detail": self.detail}

    @classmethod
    def from_json(cls, payload: dict) -> "ConfigDivergence":
        return cls(
            kind=payload["kind"],
            frontend=payload["frontend"],
            detail=payload["detail"],
        )


@dataclass
class ConfigPairReport:
    """Outcome of one (program genome, processor config) pair."""

    program_seed: int
    config_seed: int | None = None
    trace_length: int = 0
    simulations: int = 0
    frames_fetched: int = 0
    frames_fired: int = 0
    #: advisory optimizer comparison (assertion-free pairs only).
    optimized_slower: bool = False
    config_fields: list[str] = field(default_factory=list)
    divergences: list[ConfigDivergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def sim_result_diff(a: SimResult, b: SimResult) -> str:
    """Human-readable field-level diff of two SimResults."""
    da, db = asdict(a), asdict(b)
    parts = []
    for key in da:
        if da[key] != db[key]:
            parts.append(f"{key}: {da[key]!r} != {db[key]!r}")
    return "; ".join(parts) or "equal"


def widen_config(config: ProcessorConfig) -> ProcessorConfig:
    """Every capacity resource doubled (the widening check's comparand)."""
    return replace(
        config,
        simple_alus=config.simple_alus * 2,
        complex_alus=config.complex_alus * 2,
        fpus=config.fpus * 2,
        load_store_units=config.load_store_units * 2,
        retire_width=config.retire_width * 2,
        window_size=config.window_size * 2,
    )


def run_lockstep(
    trace: DynamicTrace,
    experiment: ExperimentConfig,
    widened: ProcessorConfig | None = None,
    metrics=None,
) -> tuple[SimResult, SimResult, SimResult | None, str | None]:
    """Simulate one front end: the reference model leads, the template
    model and, given ``widened`` (capacity axes changed only), a template
    model of that config shadow it.  Each model is published to
    ``metrics`` (default: the process-global registry) as its own run.

    Returns the reference, template and widened (or None) results, and
    where template and reference cycles first split (None if nowhere).
    """
    registry = metrics if metrics is not None else get_registry()
    sequencer = make_sequencer(inject_once(trace), experiment, registry)
    reference = PipelineModel(experiment.processor, scheduling="reference")
    shadows = [PipelineModel(experiment.processor)]  # the template model
    if widened is not None:
        shadows.append(PipelineModel(widened))
    split: list[str] = []  # where template and reference first differ
    blocks = count(-1)  # index of the block all models just ran (-1: none)

    def next_block(cycle: int):  # ``cycle`` is the lead's
        block = next(blocks)
        if not split and shadows[0].cycle != cycle:
            split.append(
                f"cycle split at block {block}: "
                f"template {shadows[0].cycle} != reference {cycle}"
            )
        return sequencer.next_block(cycle)

    with registry.timer("time.simulate"):
        reference.simulate(SimpleNamespace(next_block=next_block), shadows)
    for model in (reference, *shadows):
        publish_metrics(registry, sequencer, model.result)
    wide = shadows[1].result if widened is not None else None
    return reference.result, shadows[0].result, wide, (split or [None])[0]


def run_config_differential(
    genome: FuzzProgram,
    processor: ProcessorConfig,
    metrics=None,
) -> ConfigPairReport:
    """Check one (program, config) pair; returns the report."""
    report = ConfigPairReport(program_seed=genome.seed)
    report.config_fields = config_delta(processor)

    program = render_program(genome)
    emulator = Emulator(program)
    records = emulator.run(max_instructions=MAX_INSTRUCTIONS)
    if not emulator.halted:
        raise ValueError(f"program (seed {genome.seed}) did not halt")
    report.trace_length = len(records)
    trace = DynamicTrace(records, name=f"fuzz-{genome.seed}")

    def diverge(kind: str, frontend: str, detail: str) -> None:
        report.divergences.append(ConfigDivergence(kind, frontend, detail))

    results: dict[str, SimResult] = {}
    wide_config = widen_config(processor)
    wide = None
    for name in FRONTENDS:
        # The program oracle's constructor knobs, so short fuzz loops
        # build and dispatch frames under the rePLay front ends.
        experiment = replace(
            CONFIGS[name], processor=processor, constructor=CONSTRUCTOR
        )
        try:
            reference, result, widened, split = run_lockstep(
                trace, experiment, wide_config if name == "IC" else None, metrics
            )
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            diverge("sim-crash", name, f"{type(exc).__name__}: {exc}")
            continue
        report.simulations += 2 if widened is None else 3
        wide = widened or wide
        if split is not None or result != reference:
            detail = sim_result_diff(result, reference)
            diverge("schedule-ab", name, f"{split}; {detail}" if split else detail)
        results[name] = result
        report.frames_fetched += result.frames_fetched
        report.frames_fired += result.frames_fired
        if result.x86_retired != len(records):
            diverge(
                "retire-conservation",
                name,
                f"retired {result.x86_retired} x86 instructions, "
                f"trace has {len(records)}",
            )

    if wide is not None and wide.cycles > results["IC"].cycles:
        diverge(
            "widening",
            "IC",
            f"doubling FU/retire/window capacity cost cycles: "
            f"{wide.cycles} > {results['IC'].cycles}",
        )

    rp, rpo = results.get("RP"), results.get("RPO")
    if (
        rp is not None
        and rpo is not None
        and rp.frames_fired == 0
        and rpo.frames_fired == 0
    ):
        report.optimized_slower = rpo.cycles > rp.cycles
        if metrics is not None:
            key = "slower" if report.optimized_slower else "faster"
            metrics.counter(f"fuzz.config.optimized_{key}").inc()

    if metrics is not None:
        metrics.counter("fuzz.config.pairs").inc()
        metrics.counter("fuzz.config.simulations").inc(report.simulations)
        if report.divergences:
            metrics.counter("fuzz.config.divergences").inc(
                len(report.divergences)
            )
            for divergence in report.divergences:
                metrics.counter(
                    f"fuzz.config.divergence.{divergence.kind}"
                ).inc()
    return report
