"""Trace characterization: why does (or doesn't) a workload optimize?

Three reports over any workload's dynamic trace:

* **Reuse by instruction type and loop structure** — following
  "Decanting the Contribution of Instruction Types and Loop Structures
  in the Reuse of Traces", the report splits the rePLay engine's
  dynamic uop removal by the x86 mnemonic that produced each uop, and
  breaks dynamic execution down by runtime loop-nesting depth
  (back-edge detection over the trace).
* **Frame coverage and branch bias** — the share of retirement covered
  by frames, plus a ten-bucket histogram of per-static-branch taken
  ratios (the knob assertion conversion feeds on).
* **Uop latency/throughput table** — a uops.info-style table of every
  uop opcode's functional-unit class, issue latency, and peak
  throughput, read from the *live* :class:`ScheduleBuilder` against the
  active processor config and cross-checked against the paper's Table 2
  reference values; a departure is flagged, not hidden.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.harness.experiment import CONFIGS, ExperimentConfig, make_sequencer
from repro.replay.sequencer import RePLaySequencer
from repro.timing.config import ProcessorConfig
from repro.timing.pipeline import PipelineModel
from repro.timing.schedule import KIND_LOAD, KIND_STORE, ScheduleBuilder
from repro.trace.injector import inject_once
from repro.trace.stream import DynamicTrace
from repro.uops.uop import UopOp

#: Paper Table 2 reference latencies per schedule class; the live config
#: is compared against these so overrides surface in the report.
PAPER_LATENCY = {"simple": 1, "mul": 4, "div": 20, "load": 2, "store": 1}

#: Branch-bias histogram bucket count (taken ratio 0..1).
BIAS_BUCKETS = 10


@dataclass
class ReuseRow:
    """Dynamic uop reuse attributed to one x86 mnemonic."""

    mnemonic: str
    raw_uops: int  # dynamic uops entering frames (weighted by commits)
    kept_uops: int  # dynamic uops surviving optimization

    @property
    def removed(self) -> int:
        return self.raw_uops - self.kept_uops

    @property
    def removed_pct(self) -> float:
        return 100.0 * self.removed / self.raw_uops if self.raw_uops else 0.0


@dataclass
class LoopRow:
    """One runtime loop (identified by its back-edge target)."""

    head_pc: int
    iterations: int
    max_depth: int


@dataclass
class UopRow:
    """One opcode's scheduling facts under the active config."""

    op: str
    fu: str
    latency: str  # rendered (loads/stores resolve dynamically)
    throughput: int  # issue ports of its FU class
    reference: str
    matches_reference: bool


@dataclass
class Characterization:
    """Everything `scenarios characterize` measured."""

    workload: str
    config_name: str
    records: int
    loads: int
    stores: int
    conditional_branches: int
    taken_ratio: float
    frame_coverage: float
    frames: int
    dynamic_uop_reduction: float
    reuse_by_type: list[ReuseRow] = field(default_factory=list)
    loops: list[LoopRow] = field(default_factory=list)
    depth_histogram: dict[int, int] = field(default_factory=dict)
    bias_histogram: list[int] = field(default_factory=list)
    uop_table: list[UopRow] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "config": self.config_name,
            "records": self.records,
            "loads": self.loads,
            "stores": self.stores,
            "conditional_branches": self.conditional_branches,
            "taken_ratio": round(self.taken_ratio, 4),
            "frame_coverage": round(self.frame_coverage, 4),
            "frames": self.frames,
            "dynamic_uop_reduction": round(self.dynamic_uop_reduction, 4),
            "reuse_by_type": [
                {
                    "mnemonic": row.mnemonic,
                    "raw_uops": row.raw_uops,
                    "kept_uops": row.kept_uops,
                    "removed": row.removed,
                    "removed_pct": round(row.removed_pct, 2),
                }
                for row in self.reuse_by_type
            ],
            "loops": [
                {
                    "head_pc": row.head_pc,
                    "iterations": row.iterations,
                    "max_depth": row.max_depth,
                }
                for row in self.loops
            ],
            "depth_histogram": {
                str(depth): count
                for depth, count in sorted(self.depth_histogram.items())
            },
            "bias_histogram": list(self.bias_histogram),
            "uop_table": [
                {
                    "op": row.op,
                    "fu": row.fu,
                    "latency": row.latency,
                    "throughput": row.throughput,
                    "reference": row.reference,
                    "ok": row.matches_reference,
                }
                for row in self.uop_table
            ],
        }


# ------------------------------------------------------------ loop walker


def _loop_structure(
    trace: DynamicTrace,
) -> tuple[list[LoopRow], dict[int, int]]:
    """Back-edge loop detection: per-loop iteration counts and a
    per-depth dynamic instruction histogram.

    A taken conditional branch to a lower pc is a back-edge; its target
    is the loop head and the branch pc bounds the body.  The active-loop
    stack pops when control leaves a body range (calls into helpers
    outside the range leave the loop, matching runtime nesting rather
    than static structure).
    """
    stack: list[tuple[int, int]] = []  # (head pc, back-edge pc)
    loops: dict[int, LoopRow] = {}
    depth_histogram: Counter[int] = Counter()
    for record in trace:
        pc = record.pc
        while stack and not (stack[-1][0] <= pc <= stack[-1][1]):
            stack.pop()
        depth_histogram[len(stack)] += 1
        if (
            record.is_conditional_branch
            and record.branch_taken
            and record.next_pc < pc
        ):
            head = record.next_pc
            row = loops.get(head)
            if row is None:
                row = loops[head] = LoopRow(head_pc=head, iterations=0, max_depth=0)
            if not (stack and stack[-1][0] == head):
                stack.append((head, pc))
            row.iterations += 1
            row.max_depth = max(row.max_depth, len(stack))
    return sorted(loops.values(), key=lambda r: r.head_pc), dict(depth_histogram)


def _bias_histogram(trace: DynamicTrace) -> list[int]:
    """Static conditional branches bucketed by dynamic taken ratio."""
    taken: Counter[int] = Counter()
    total: Counter[int] = Counter()
    for record in trace:
        if record.is_conditional_branch:
            total[record.pc] += 1
            if record.branch_taken:
                taken[record.pc] += 1
    buckets = [0] * BIAS_BUCKETS
    for pc, count in total.items():
        ratio = taken[pc] / count
        buckets[min(int(ratio * BIAS_BUCKETS), BIAS_BUCKETS - 1)] += 1
    return buckets


# -------------------------------------------------------------- reuse


def _reuse_by_type(sequencer: RePLaySequencer, trace: DynamicTrace) -> list[ReuseRow]:
    """Per-mnemonic dynamic uop removal over committed frame instances."""
    mnemonic_at: dict[int, str] = {}
    for record in trace:
        mnemonic_at.setdefault(record.pc, record.instruction.mnemonic.value)
    raw: Counter[str] = Counter()
    kept: Counter[str] = Counter()
    for frame in sequencer.frame_cache.frames():
        weight = frame.commits
        if not weight:
            continue
        for uop in frame.dyn_uops:
            raw[mnemonic_at.get(uop.x86_pc, "?")] += weight
        if frame.buffer is not None:
            kept_uops = frame.kept_uops()
        else:
            kept_uops = frame.dyn_uops
        for uop in kept_uops:
            kept[mnemonic_at.get(uop.x86_pc, "?")] += weight
    return [
        ReuseRow(mnemonic=name, raw_uops=raw[name], kept_uops=kept.get(name, 0))
        for name in sorted(raw, key=lambda n: (-raw[n], n))
    ]


# ------------------------------------------------------------- uop table


def uop_latency_table(processor: ProcessorConfig) -> list[UopRow]:
    """uops.info-style opcode table, cross-checked against Table 2."""
    builder = ScheduleBuilder(processor)
    ports = {
        "simple": processor.simple_alus,
        "complex": processor.complex_alus,
        "load": processor.load_store_units,
        "store": processor.load_store_units,
    }
    rows: list[UopRow] = []
    for op in UopOp:
        fu, kind, latency = builder._fu_and_latency(op)
        if kind == KIND_LOAD:
            live = processor.dcache.hit_latency
            rendered = f"{live} (D$ hit)"
            reference_key = "load"
        elif kind == KIND_STORE:
            live = 1
            rendered = "1 (commit)"
            reference_key = "store"
        else:
            live = latency
            rendered = str(latency)
            reference_key = (
                "mul"
                if op is UopOp.MUL
                else "div"
                if op in (UopOp.DIVQ, UopOp.DIVR)
                else "simple"
            )
        reference = PAPER_LATENCY[reference_key]
        rows.append(
            UopRow(
                op=op.value,
                fu=fu,
                latency=rendered,
                throughput=ports[fu],
                reference=f"{reference} ({reference_key})",
                matches_reference=live == reference,
            )
        )
    return rows


# ----------------------------------------------------------- entry point


def characterize(
    trace: DynamicTrace,
    config: ExperimentConfig | None = None,
    workload_name: str | None = None,
) -> Characterization:
    """Run the characterization pipeline over one trace.

    Unlike :func:`repro.harness.experiment.run_experiment`, this keeps
    the sequencer so the frame cache's per-frame dynamic counts can be
    decanted after simulation.
    """
    config = config or CONFIGS["RPO"]
    if config.frontend != "replay":
        raise ValueError(
            "characterize needs a replay-frontend config (RP or RPO); "
            f"got {config.name!r}"
        )
    sequencer = make_sequencer(inject_once(trace), config)
    sim = PipelineModel(config.processor).simulate(sequencer)

    stats = trace.stats()
    loops, depth_histogram = _loop_structure(trace)
    return Characterization(
        workload=workload_name or trace.name,
        config_name=config.name,
        records=stats.x86_instructions,
        loads=stats.loads,
        stores=stats.stores,
        conditional_branches=stats.conditional_branches,
        taken_ratio=stats.taken_ratio,
        frame_coverage=sim.coverage,
        frames=len(sequencer.frame_cache),
        dynamic_uop_reduction=sequencer.stats.dynamic_uop_reduction,
        reuse_by_type=_reuse_by_type(sequencer, trace),
        loops=loops,
        depth_histogram=depth_histogram,
        bias_histogram=_bias_histogram(trace),
        uop_table=uop_latency_table(config.processor),
    )


def format_characterization(report: Characterization) -> str:
    """Render the report as aligned text tables."""
    lines = [
        f"characterize {report.workload} under {report.config_name}",
        f"  {report.records:,} x86 records, {report.loads:,} loads, "
        f"{report.stores:,} stores",
        f"  {report.conditional_branches:,} conditional branches "
        f"({100 * report.taken_ratio:.1f}% taken)",
        f"  frame coverage {100 * report.frame_coverage:.1f}% over "
        f"{report.frames} frames; dynamic uop reduction "
        f"{100 * report.dynamic_uop_reduction:.1f}%",
        "",
        "reuse by instruction type (committed frame instances)",
        f"  {'mnemonic':<8} {'raw uops':>10} {'kept':>10} {'removed':>10} {'%':>6}",
    ]
    for row in report.reuse_by_type:
        lines.append(
            f"  {row.mnemonic:<8} {row.raw_uops:>10,} {row.kept_uops:>10,} "
            f"{row.removed:>10,} {row.removed_pct:>5.1f}%"
        )
    if not report.reuse_by_type:
        lines.append("  (no committed frame instances)")
    lines += ["", "loop structure (runtime back-edges)"]
    for row in report.loops:
        lines.append(
            f"  head {row.head_pc:#8x}: {row.iterations:>8,} back-edges, "
            f"max depth {row.max_depth}"
        )
    if not report.loops:
        lines.append("  (no loops detected)")
    lines.append("  dynamic instructions by loop depth: " + ", ".join(
        f"d{depth}={count:,}"
        for depth, count in sorted(report.depth_histogram.items())
    ))
    lines += [
        "",
        "branch bias histogram (static branches per taken-ratio decile)",
        "  " + " ".join(
            f"{10 * i}-{10 * (i + 1)}%:{count}"
            for i, count in enumerate(report.bias_histogram)
        ),
        "",
        "uop latency/throughput vs Table 2 reference",
        f"  {'uop':<10} {'fu':<8} {'latency':<12} {'ports':>5}  reference",
    ]
    for row in report.uop_table:
        flag = "" if row.matches_reference else "  ** DIFFERS from reference"
        lines.append(
            f"  {row.op:<10} {row.fu:<8} {row.latency:<12} "
            f"{row.throughput:>5}  {row.reference}{flag}"
        )
    return "\n".join(lines)
