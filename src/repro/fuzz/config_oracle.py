"""The config-differential oracle: one (program, config) pair, checked.

Where :mod:`repro.fuzz.oracle` checks optimizer *semantics* (frames must
compute what the program computes), this oracle checks the *timing
model* across the configuration axis.  A sampled
:class:`~repro.timing.config.ProcessorConfig` is driven through full
simulations of the generated program under the paper's front ends, and
three hard invariant families must hold:

* **schedule A/B** — for every front end (IC, RP, RPO), the template
  scheduling fast path must produce a :class:`SimResult` *identical* to
  the object-walking reference path.  PR 4 proved this on the 14
  workloads under the default config; this oracle is the standing gate
  that keeps it true for arbitrary geometries.
* **retire conservation** — every front end must retire exactly the
  emulated trace: ``x86_retired == len(trace)`` whatever the config.
* **widening monotonicity** — re-simulating the ICache front end with
  every *capacity* resource widened (FU pools, retire width, window)
  must never cost cycles.  Only capacity axes are widened: fetch and
  decode widths change fetch grouping (different blocks, different
  branch-event timing), and the rePLay front ends are excluded because
  frame availability is cycle-dependent (the optimization queue models
  latency), so their timing is legitimately non-monotone.

Any crash inside a simulation is itself a finding (``sim-crash``):
configs are valid by construction, so nothing downstream may throw.

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

from repro.harness.experiment import CONFIGS, run_experiment
from repro.timing.config import ProcessorConfig
from repro.timing.pipeline import SimResult
from repro.trace.stream import DynamicTrace
from repro.x86.emulator import Emulator

from repro.fuzz.configgen import config_delta
from repro.fuzz.generator import FuzzProgram, render_program
from repro.fuzz.oracle import OracleConfig

#: Front ends every pair is simulated under.  TC is omitted: it shares
#: the frame path's timing code (same A/B machinery) at roughly +35%
#: oracle cost.
FRONTENDS = ("IC", "RP", "RPO")


@dataclass(frozen=True)
class ConfigOracleConfig:
    """Oracle tuning for the config axis."""

    check_widening: bool = True
    max_instructions: int = 50_000


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
    """Every capacity resource doubled (the monotonicity comparand)."""
    return replace(
        config,
        simple_alus=config.simple_alus * 2,
        complex_alus=config.complex_alus * 2,
        fpus=config.fpus * 2,
        load_store_units=config.load_store_units * 2,
        retire_width=config.retire_width * 2,
        window_size=config.window_size * 2,
    )


def run_config_differential(
    genome: FuzzProgram,
    processor: ProcessorConfig,
    config: ConfigOracleConfig | None = None,
    metrics=None,
) -> ConfigPairReport:
    """Check one (program, config) pair; returns the report."""
    config = config or ConfigOracleConfig()
    report = ConfigPairReport(program_seed=genome.seed)
    report.config_fields = config_delta(processor)

    program = render_program(genome)
    emulator = Emulator(program)
    records = emulator.run(max_instructions=config.max_instructions)
    if not emulator.halted:
        raise ValueError(f"program (seed {genome.seed}) did not halt")
    report.trace_length = len(records)
    trace = DynamicTrace(records, name=f"fuzz-{genome.seed}")

    # The program oracle's constructor knobs, so short fuzz loops build
    # and dispatch frames under the rePLay front ends.
    constructor = OracleConfig().constructor_config()
    results: dict[str, SimResult] = {}
    for name in FRONTENDS:
        experiment = replace(
            CONFIGS[name], processor=processor, constructor=constructor
        )
        sims: dict[str, SimResult] = {}
        for scheduling in ("reference", "template"):
            try:
                sims[scheduling] = run_experiment(
                    trace, experiment, metrics=metrics, scheduling=scheduling
                ).sim
                report.simulations += 1
            except Exception as exc:  # noqa: BLE001 - any crash is a finding
                report.divergences.append(
                    ConfigDivergence(
                        kind="sim-crash",
                        frontend=name,
                        detail=f"[{scheduling}] {type(exc).__name__}: {exc}",
                    )
                )
        if len(sims) < 2:
            continue
        if sims["template"] != sims["reference"]:
            report.divergences.append(
                ConfigDivergence(
                    kind="schedule-ab",
                    frontend=name,
                    detail=sim_result_diff(sims["template"], sims["reference"]),
                )
            )
        result = sims["template"]
        results[name] = result
        report.frames_fetched += result.frames_fetched
        report.frames_fired += result.frames_fired
        if result.x86_retired != len(records):
            report.divergences.append(
                ConfigDivergence(
                    kind="retire-conservation",
                    frontend=name,
                    detail=(
                        f"retired {result.x86_retired} x86 instructions, "
                        f"trace has {len(records)}"
                    ),
                )
            )

    if config.check_widening and "IC" in results:
        experiment = replace(CONFIGS["IC"], processor=widen_config(processor))
        try:
            wide = run_experiment(trace, experiment, metrics=metrics).sim
            report.simulations += 1
            if wide.cycles > results["IC"].cycles:
                report.divergences.append(
                    ConfigDivergence(
                        kind="widening",
                        frontend="IC",
                        detail=(
                            f"doubling FU/retire/window capacity cost cycles: "
                            f"{wide.cycles} > {results['IC'].cycles}"
                        ),
                    )
                )
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            report.divergences.append(
                ConfigDivergence(
                    kind="sim-crash",
                    frontend="IC",
                    detail=f"[widened] {type(exc).__name__}: {exc}",
                )
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
