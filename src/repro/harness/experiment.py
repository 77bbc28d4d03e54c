"""Experiment runner: one (workload, configuration) simulation.

The four configurations of Figure 6:

* ``IC``  — conventional ICache front end;
* ``TC``  — trace cache (fill unit, non-atomic lines);
* ``RP``  — basic rePLay (frames, no optimization);
* ``RPO`` — rePLay with the optimization engine.

``run_experiment`` wires the Micro-Op Injector (once per trace), the
config's sequencer (``make_sequencer``), and the timing model together
and returns an :class:`ExperimentResult`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.metrics import MetricsRegistry, get_registry
from repro.trace.injector import inject_once
from repro.trace.stream import DynamicTrace
from repro.optimizer.pipeline import FrameOptimizer, OptimizerConfig
from repro.replay.constructor import ConstructorConfig
from repro.replay.sequencer import ICacheSequencer, RePLaySequencer, SequencerStats
from repro.timing.config import ProcessorConfig, default_config, large_icache_config
from repro.timing.pipeline import PipelineModel, SimResult
from repro.tracecache.sequencer import TraceCacheSequencer
from repro.verify.verifier import StateVerifier


@dataclass(frozen=True)
class ExperimentConfig:
    """One named processor/front-end configuration."""

    name: str
    frontend: str  # 'icache' | 'tcache' | 'replay'
    optimize: bool = False
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    constructor: ConstructorConfig = field(default_factory=ConstructorConfig)
    processor: ProcessorConfig = field(default_factory=default_config)
    verify: bool = False

    def fingerprint(self) -> dict:
        """Every field that determines simulation output, as plain data.

        The artifact store mixes this into the result cache key, so any
        config change — a disabled pass, a resized cache — is a cache
        miss, never a stale hit.
        """
        return asdict(self)


#: The paper's four headline configurations (Figure 6), plus ``IC64``,
#: the 64kB-ICache reference mentioned in §5.3.
CONFIGS: dict[str, ExperimentConfig] = {
    "IC": ExperimentConfig(name="IC", frontend="icache"),
    "IC64": ExperimentConfig(
        name="IC64", frontend="icache", processor=large_icache_config()
    ),
    "TC": ExperimentConfig(name="TC", frontend="tcache"),
    "RP": ExperimentConfig(name="RP", frontend="replay", optimize=False),
    "RPO": ExperimentConfig(name="RPO", frontend="replay", optimize=True),
}


@dataclass
class ExperimentResult:
    """Everything measured in one run."""

    config_name: str
    workload: str
    sim: SimResult
    sequencer_stats: SequencerStats | None = None
    optimizer_totals: object | None = None
    uops_per_x86: float = 0.0
    frames_verified: int = 0

    @property
    def ipc_x86(self) -> float:
        return self.sim.ipc_x86

    @property
    def uop_reduction(self) -> float:
        """Dynamic uop reduction (Table 3 'Micro-ops Removed')."""
        if self.sequencer_stats is None:
            return 0.0
        return self.sequencer_stats.dynamic_uop_reduction

    @property
    def load_reduction(self) -> float:
        """Dynamic load reduction (Table 3 'Loads Removed')."""
        if self.sequencer_stats is None:
            return 0.0
        return self.sequencer_stats.dynamic_load_reduction

    @property
    def coverage(self) -> float:
        return self.sim.coverage


def make_sequencer(injected, config: ExperimentConfig, metrics=None):
    """``config``'s front end over one injected trace: its sequencer, with
    the optimizer counting pass changes in ``metrics`` and, for a
    ``verify`` RPO config, a :class:`StateVerifier` as its ``verifier``.

    A degenerate processor config fails here with a field-named
    ConfigError, before any sequencer reads its geometry."""
    config.processor.validate()
    if config.frontend == "icache":
        return ICacheSequencer(injected, config.processor)
    if config.frontend == "tcache":
        return TraceCacheSequencer(injected, config.processor)
    if config.frontend != "replay":
        raise ValueError(f"unknown frontend {config.frontend!r}")
    return RePLaySequencer(
        injected,
        config.processor,
        FrameOptimizer(config.optimizer, metrics=metrics) if config.optimize else None,
        constructor_config=config.constructor,
        verifier=StateVerifier() if config.optimize and config.verify else None,
    )


def run_experiment(
    trace: DynamicTrace,
    config: ExperimentConfig,
    workload_name: str | None = None,
    metrics: MetricsRegistry | None = None,
) -> ExperimentResult:
    """Simulate one workload trace under one configuration.

    Measurements land in ``metrics`` (the process-global registry when
    not given): simulation counters, the seven cycle-accounting bins,
    sequencer/frame-cache activity, and per-pass optimizer changes.
    """
    registry = metrics if metrics is not None else get_registry()
    injected = inject_once(trace)
    sequencer = make_sequencer(injected, config, registry)
    pipeline = PipelineModel(config.processor)
    with registry.timer("time.simulate"):
        sim = pipeline.simulate(sequencer)

    result = ExperimentResult(
        config_name=config.name,
        workload=workload_name or trace.name,
        sim=sim,
        sequencer_stats=sequencer.stats,
        uops_per_x86=injected.uops_per_x86,
    )
    if isinstance(sequencer, RePLaySequencer):
        result.optimizer_totals = sequencer.queue.totals
        if sequencer.verifier is not None:
            result.frames_verified = sequencer.verifier.instances_checked
    publish_metrics(registry, sequencer, sim)
    return result


def publish_metrics(registry: MetricsRegistry, sequencer, sim: SimResult) -> None:
    """Fold one model's result and its sequencer's counters into the
    registry (once per model, also when models share a sequencer).

    Components keep plain-int counters on their hot paths; this single
    coarse publication step is what keeps metrics overhead negligible
    while still exposing every layer's activity.
    """
    counter = registry.counter
    counter("sim.runs").inc()
    counter("sim.cycles").inc(sim.cycles)
    counter("sim.x86_retired").inc(sim.x86_retired)
    counter("sim.uops_fetched").inc(sim.uops_fetched)
    counter("sim.loads_executed").inc(sim.loads_executed)
    counter("sim.stores_executed").inc(sim.stores_executed)
    counter("sim.branch_mispredicts").inc(sim.branch_mispredicts)
    counter("sim.frames_fetched").inc(sim.frames_fetched)
    counter("sim.frames_fired").inc(sim.frames_fired)
    for bin_name, cycles in sim.bins.items():
        counter(f"timing.bin.{bin_name}").inc(cycles)
    counter("timing.window_occupancy_sum").inc(sim.window_occupancy_sum)
    counter("timing.window_occupancy_samples").inc(sim.window_occupancy_samples)
    registry.histogram("timing.window_occupancy_mean").observe(
        sim.window_occupancy_mean
    )
    stats = sequencer.stats
    counter("sequencer.raw_uops_total").inc(stats.raw_uops_total)
    counter("sequencer.frame_dispatches").inc(stats.frame_dispatches)
    counter("sequencer.frame_aborts").inc(stats.frame_aborts)
    counter("sequencer.unsafe_aborts").inc(stats.unsafe_aborts)
    counter("sequencer.cooldown_skips").inc(stats.cooldown_skips)
    counter("sequencer.frame_raw_uops").inc(stats.frame_raw_uops)
    counter("sequencer.frame_fetched_uops").inc(stats.frame_fetched_uops)
    if isinstance(sequencer, RePLaySequencer):
        cache = sequencer.frame_cache
        counter("frame_cache.hits").inc(cache.hits)
        counter("frame_cache.misses").inc(cache.misses)
        counter("frame_cache.evictions").inc(cache.evictions)
        counter("frame_cache.displacements").inc(cache.displacements)
        counter("frame_cache.rejections").inc(cache.rejections)
        totals = sequencer.queue.totals
        counter("optimizer.frames_optimized").inc(totals.frames_optimized)
        counter("optimizer.frames_dropped").inc(totals.frames_dropped)
        counter("optimizer.uops_removed").inc(totals.uops_removed)
        counter("optimizer.loads_removed").inc(totals.loads_removed)
        counter("optimizer.loads_removed_speculatively").inc(
            totals.loads_removed_speculatively
        )
        counter("optimizer.stores_marked_unsafe").inc(totals.stores_marked_unsafe)
