"""Experiment runners: one function per table/figure of the paper.

Each ``run_*`` function returns plain data structures (suitable for both
the CLI's text tables and the paper-claim tests), computed via a
shared :class:`ResultMatrix` so a (workload, config) pair is only ever
simulated once per process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.artifacts.runner import MatrixTask, TaskTelemetry, compute_trace, run_matrix
from repro.artifacts.store import ArtifactStore
from repro.harness.experiment import CONFIGS, ExperimentConfig, ExperimentResult, run_experiment
from repro.optimizer.pipeline import OptimizerConfig
from repro.timing.pipeline import BINS
from repro.trace.stream import DynamicTrace
from repro.workloads import all_workloads, build_workload, get_workload

#: Workload order used throughout the paper's figures.
PAPER_ORDER = [
    "bzip2",
    "crafty",
    "eon",
    "gzip",
    "parser",
    "twolf",
    "vortex",
    "access",
    "dream",
    "excel",
    "lotus",
    "photo",
    "power",
    "sound",
]

#: The subset shown in Figure 10.
FIG10_WORKLOADS = ["bzip2", "crafty", "vortex", "dream", "excel"]

#: Figure 10 ablation legend order.
FIG10_VARIANTS = ["asst", "cp", "cse", "nop", "ra", "sf"]


class ResultMatrix:
    """Caches traces and (workload, config) simulation results.

    Three cache layers, cheapest first: this process's memory, the
    on-disk :class:`ArtifactStore` (``store``, survives across runs), and
    recomputation — fanned across a process pool when ``jobs > 1``.
    ``telemetry`` records where every cell came from; :meth:`summary`
    renders the cache-hit counters the CLI prints after a run.
    """

    def __init__(
        self,
        scale: int | None = None,
        seed: int = 1,
        store: ArtifactStore | None = None,
        jobs: int = 1,
    ) -> None:
        self.scale = scale
        self.seed = seed
        self.store = store
        self.jobs = max(1, jobs)
        self._traces: dict[str, DynamicTrace] = {}
        self._results: dict[tuple[str, str], ExperimentResult] = {}
        self.telemetry: list[TaskTelemetry] = []

    def trace(self, workload: str) -> DynamicTrace:
        if workload not in self._traces:
            telemetry = TaskTelemetry(workload=workload, config_name="-")
            start = time.perf_counter()
            self._traces[workload] = compute_trace(
                workload, self.scale, self.seed, self.store, telemetry
            )
            telemetry.seconds = time.perf_counter() - start
            self.telemetry.append(telemetry)
        return self._traces[workload]

    def ensure(self, pairs: list[tuple[str, ExperimentConfig]]) -> None:
        """Resolve many (workload, config) cells at once.

        Missing cells run through :func:`repro.artifacts.runner.run_matrix`
        — in parallel when ``jobs > 1`` — and land in the in-memory map,
        so the subsequent per-cell :meth:`run` calls are pure lookups.
        """
        tasks: list[MatrixTask] = []
        seen: set[tuple[str, str]] = set()
        for workload, config in pairs:
            cell = (workload, config.name)
            if cell in self._results or cell in seen:
                continue
            seen.add(cell)
            tasks.append(
                MatrixTask(workload, config, scale=self.scale, seed=self.seed)
            )
        if not tasks:
            return
        run = run_matrix(tasks, jobs=self.jobs, store=self.store)
        for task, result in zip(run.tasks, run.results):
            self._results[(task.workload, task.config.name)] = result
        self.telemetry.extend(run.telemetry)

    def run(self, workload: str, config: ExperimentConfig) -> ExperimentResult:
        key = (workload, config.name)
        if key not in self._results:
            self.ensure([(workload, config)])
        return self._results[key]

    # ------------------------------------------------------ run summary

    @property
    def results_cached(self) -> int:
        return sum(t.result_cache_hit for t in self.telemetry)

    @property
    def results_computed(self) -> int:
        return sum(t.simulated for t in self.telemetry)

    @property
    def traces_cached(self) -> int:
        return sum(t.trace_cache_hit for t in self.telemetry)

    @property
    def traces_emulated(self) -> int:
        return sum(t.emulated for t in self.telemetry)

    def summary(self) -> str:
        """One-line cache/parallelism accounting for this run."""
        if self.store is not None:
            stats = self.store.stats()
            mb = stats["bytes"] / (1024 * 1024)
            cache = f"{stats['root']} ({stats['entries']} entries, {mb:.1f} MB)"
        else:
            cache = "disabled"
        return (
            f"[repro.artifacts] results: {self.results_computed} computed, "
            f"{self.results_cached} cached | traces: "
            f"{self.traces_emulated} emulated, {self.traces_cached} cached | "
            f"jobs: {self.jobs} | cache: {cache}"
        )


# ----------------------------------------------------------------- tables


@dataclass
class Table1Row:
    name: str
    category: str
    x86_instructions: int
    loads: int
    stores: int
    conditional_branches: int
    taken_ratio: float
    description: str


def run_table1(matrix: ResultMatrix | None = None) -> list[Table1Row]:
    """Workload set summary (Table 1 analogue)."""
    matrix = matrix or ResultMatrix()
    rows = []
    for name in PAPER_ORDER:
        workload = get_workload(name)
        stats = matrix.trace(name).stats()
        rows.append(
            Table1Row(
                name=name,
                category=workload.category,
                x86_instructions=stats.x86_instructions,
                loads=stats.loads,
                stores=stats.stores,
                conditional_branches=stats.conditional_branches,
                taken_ratio=stats.taken_ratio,
                description=workload.description,
            )
        )
    return rows


def run_table2() -> str:
    """Processor configuration (Table 2)."""
    from repro.timing.config import default_config

    return default_config().table2()


@dataclass
class Fig6Row:
    name: str
    ipc: dict[str, float]  # config name -> x86 IPC
    rpo_gain_over_rp: float
    coverage: float


def run_fig6(
    matrix: ResultMatrix | None = None, workloads: list[str] | None = None
) -> list[Fig6Row]:
    """x86 IPC under IC / TC / RP / RPO (Figure 6)."""
    matrix = matrix or ResultMatrix()
    names = workloads or PAPER_ORDER
    matrix.ensure(
        [(name, CONFIGS[c]) for name in names for c in ("IC", "TC", "RP", "RPO")]
    )
    rows = []
    for name in names:
        ipc = {}
        for config_name in ("IC", "TC", "RP", "RPO"):
            ipc[config_name] = matrix.run(name, CONFIGS[config_name]).ipc_x86
        gain = ipc["RPO"] / ipc["RP"] - 1.0 if ipc["RP"] else 0.0
        rows.append(
            Fig6Row(
                name=name,
                ipc=ipc,
                rpo_gain_over_rp=gain,
                coverage=matrix.run(name, CONFIGS["RPO"]).coverage,
            )
        )
    return rows


@dataclass
class CycleBreakdownRow:
    name: str
    config: str
    cycles: int
    bins: dict[str, int]


def run_fig7_8(
    matrix: ResultMatrix | None = None, workloads: list[str] | None = None
) -> list[CycleBreakdownRow]:
    """Per-benchmark cycle breakdown for RP and RPO (Figures 7 and 8)."""
    matrix = matrix or ResultMatrix()
    names = workloads or PAPER_ORDER
    matrix.ensure([(name, CONFIGS[c]) for name in names for c in ("RP", "RPO")])
    rows = []
    for name in names:
        for config_name in ("RP", "RPO"):
            result = matrix.run(name, CONFIGS[config_name])
            rows.append(
                CycleBreakdownRow(
                    name=name,
                    config=config_name,
                    cycles=result.sim.cycles,
                    bins=dict(result.sim.bins),
                )
            )
    return rows


@dataclass
class Table3Row:
    name: str
    uops_removed: float
    loads_removed: float
    ipc_increase: float
    paper_uops_removed: float = 0.0
    paper_loads_removed: float = 0.0
    paper_ipc_increase: float = 0.0


def run_table3(
    matrix: ResultMatrix | None = None, workloads: list[str] | None = None
) -> list[Table3Row]:
    """Dynamic uop/load reduction and IPC increase (Table 3).

    The final row is the all-workload average, as in the paper.
    """
    matrix = matrix or ResultMatrix()
    names = workloads or PAPER_ORDER
    matrix.ensure([(name, CONFIGS[c]) for name in names for c in ("RP", "RPO")])
    rows = []
    for name in names:
        rp = matrix.run(name, CONFIGS["RP"])
        rpo = matrix.run(name, CONFIGS["RPO"])
        workload = get_workload(name)
        rows.append(
            Table3Row(
                name=name,
                uops_removed=rpo.uop_reduction,
                loads_removed=rpo.load_reduction,
                ipc_increase=rpo.ipc_x86 / rp.ipc_x86 - 1.0 if rp.ipc_x86 else 0.0,
                paper_uops_removed=workload.paper_uop_reduction,
                paper_loads_removed=workload.paper_load_reduction,
                paper_ipc_increase=workload.paper_ipc_gain,
            )
        )
    average = Table3Row(
        name="Average",
        uops_removed=sum(r.uops_removed for r in rows) / len(rows),
        loads_removed=sum(r.loads_removed for r in rows) / len(rows),
        ipc_increase=sum(r.ipc_increase for r in rows) / len(rows),
        paper_uops_removed=0.21,
        paper_loads_removed=0.22,
        paper_ipc_increase=0.17,
    )
    return rows + [average]


@dataclass
class Fig9Row:
    name: str
    block_speedup: float  # intra-block-only optimization, vs RP
    frame_speedup: float  # frame-level optimization, vs RP


def run_fig9(
    matrix: ResultMatrix | None = None, workloads: list[str] | None = None
) -> list[Fig9Row]:
    """Intra-block vs frame-level optimization IPC speedups (Figure 9)."""
    matrix = matrix or ResultMatrix()
    block_config = replace(
        CONFIGS["RPO"],
        name="RPO-block",
        optimizer=OptimizerConfig(scope="block"),
    )
    names = workloads or PAPER_ORDER
    matrix.ensure(
        [
            (name, config)
            for name in names
            for config in (CONFIGS["RP"], CONFIGS["RPO"], block_config)
        ]
    )
    rows = []
    for name in names:
        rp = matrix.run(name, CONFIGS["RP"]).ipc_x86
        frame = matrix.run(name, CONFIGS["RPO"]).ipc_x86
        block = matrix.run(name, block_config).ipc_x86
        rows.append(
            Fig9Row(
                name=name,
                block_speedup=block / rp - 1.0 if rp else 0.0,
                frame_speedup=frame / rp - 1.0 if rp else 0.0,
            )
        )
    return rows


@dataclass
class Fig10Row:
    name: str
    relative_ipc: dict[str, float]  # disabled-pass -> position on the RP..RPO scale


def relative_ipc(ipc: float, rp: float, rpo: float) -> float:
    """Figure 10's normalization: ``(ipc - rp) / (rpo - rp)``.

    0.0 = RP (no optimization), 1.0 = RPO (all passes); 0.0 when RP and
    RPO coincide.
    """
    span = rpo - rp
    return (ipc - rp) / span if span else 0.0


def fig10_config(variant: str) -> ExperimentConfig:
    """RPO with one Figure 10 pass disabled, named ``RPO-no-<variant>``."""
    return replace(
        CONFIGS["RPO"],
        name=f"RPO-no-{variant}",
        optimizer=OptimizerConfig().disabled(variant),
    )


def run_fig10(
    matrix: ResultMatrix | None = None, workloads: list[str] | None = None
) -> list[Fig10Row]:
    """Leave-one-out pass ablation (Figure 10).

    0.0 on the scale = RP (no optimization), 1.0 = RPO (all passes).
    A value above 1.0 means disabling the pass *helped* (the paper's
    Excel-with-SF case).
    """
    matrix = matrix or ResultMatrix()
    variant_configs = {variant: fig10_config(variant) for variant in FIG10_VARIANTS}
    names = workloads or FIG10_WORKLOADS
    matrix.ensure(
        [
            (name, config)
            for name in names
            for config in (
                CONFIGS["RP"],
                CONFIGS["RPO"],
                *variant_configs.values(),
            )
        ]
    )
    rows = []
    for name in names:
        rp = matrix.run(name, CONFIGS["RP"]).ipc_x86
        rpo = matrix.run(name, CONFIGS["RPO"]).ipc_x86
        relative = {
            variant: relative_ipc(matrix.run(name, config).ipc_x86, rp, rpo)
            for variant, config in variant_configs.items()
        }
        rows.append(Fig10Row(name=name, relative_ipc=relative))
    return rows
