"""One rep of one benchmark workload, in a fresh interpreter.

``bench/run.py`` starts this script once per rep, so every rep begins
with an empty in-process trace memo, a fresh artifact store and cold
Python caches.  It prints one JSON line.

Modes:

* default: the timed rep.  It stamps ``ready`` once its imports are
  done, runs the workload's ops, stamps ``end``, and reports op counts,
  op latencies, the output digest and its peak RSS.  Each op boundary
  runs the :mod:`hostspeed` probe, whose time is left out of the ops.
  With ``--trace-out`` it installs :class:`tracer.Tracer` first, skips
  the probes, and also reports per-layer metrics.
* ``--setup-only``: the workload's set-up and nothing else.  For
  ``ablation`` that is capturing its traces into ``--store``, which the
  timed rep then reads.
* ``--warm``: re-resolve the ``fig6-cold`` matrix from ``--store`` and
  report the digest of its rendered text.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.artifacts.runner import MatrixTaskError, TaskError  # noqa: E402
from repro.artifacts.store import ArtifactStore  # noqa: E402
from repro.fuzz import campaign as campaign_module  # noqa: E402
from repro.fuzz.campaign import (  # noqa: E402
    CampaignConfig,
    ConfigCampaignConfig,
    run_campaign,
    run_config_campaign,
)
from repro.harness.experiment import CONFIGS  # noqa: E402
from repro.harness.figures import (  # noqa: E402
    FIG10_WORKLOADS,
    PAPER_ORDER,
    ResultMatrix,
    run_fig6,
    run_fig9,
    run_fig10,
    run_table3,
)
from repro.harness.report import (  # noqa: E402
    format_fig6,
    format_fig9,
    format_fig10,
    format_table3,
)
from repro.metrics import MetricsRegistry, get_registry  # noqa: E402
from repro.timing.pipeline import BINS  # noqa: E402
from hostspeed import probe  # noqa: E402
from tracer import CELL, Tracer  # noqa: E402

#: Ops per rep.  ``--quick`` (the benchmark's own tests) runs the two
#: shortest traces of each matrix and 10 programs or pairs.
MATRIX_WORKLOADS = {"fig6-cold": PAPER_ORDER, "ablation": FIG10_WORKLOADS}
QUICK_MATRIX_WORKLOADS = {
    "fig6-cold": ["vortex", "power"],
    "ablation": ["vortex", "excel"],
}
FUZZ_ITERATIONS = 300
QUICK_FUZZ_ITERATIONS = 10


class OpClock:
    """Op boundaries, each with the host-speed probe timed at it.

    ``mark()`` runs before every op and once after the last, so op *i*
    runs between marks *i* and *i + 1*; the probe's own time is excluded.
    """

    def __init__(self, probed: bool) -> None:
        self.probed = probed
        self.marks: list[tuple[float, float, float]] = []  # (start, probe, end)

    def mark(self) -> None:
        start = time.perf_counter()
        probe_s = probe() if self.probed else 0.0
        self.marks.append((start, probe_s, time.perf_counter()))

    def ops(self) -> list[list[float]]:
        """``[latency, probe seconds around it]`` per op."""
        return [
            [after[0] - before[2], (before[1] + after[1]) / 2]
            for before, after in zip(self.marks, self.marks[1:])
        ]

    def marking_s(self) -> float:
        return sum(end - start for start, _, end in self.marks)


class CheckedMatrix(ResultMatrix):
    """A :class:`ResultMatrix` that resolves one cell at a time.

    Each cell is one op.  A cell that raises, or whose simulation
    retires a different number of x86 instructions than its trace holds
    (retire conservation), counts as failed; a cell that raised stays
    unresolved, so rendering a figure that needs it raises ``KeyError``.
    """

    def __init__(
        self, seed: int, store: ArtifactStore, clock: OpClock, tracer=None
    ) -> None:
        super().__init__(seed=seed, store=store, jobs=1)
        self.clock = clock
        resolve = super().ensure
        self._resolve = (
            tracer.wrap(resolve, CELL, span=True, new_op=True)
            if tracer is not None
            else resolve
        )
        self.attempted: set[tuple[str, str]] = set()
        self.failed: set[tuple[str, str]] = set()

    def ensure(self, pairs) -> None:
        for workload, config in pairs:
            cell = (workload, config.name)
            if cell in self.attempted:
                continue
            self.attempted.add(cell)
            self.clock.mark()
            try:
                self._resolve([(workload, config)])
            except MatrixTaskError:
                self.failed.add(cell)
                continue
            retired = self.run(workload, config).sim.x86_retired
            if retired != len(self.trace(workload)):
                self.failed.add(cell)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _mae(rows, simulated: str, paper: str) -> float:
    return sum(abs(getattr(r, simulated) - getattr(r, paper)) for r in rows) / len(rows)


def render_fig6(matrix: ResultMatrix, names: list[str]) -> tuple[str, dict]:
    """Figure 6 + Table 3 text, and the Table 3 errors against the paper."""
    table3 = run_table3(matrix, names)
    text = format_fig6(run_fig6(matrix, names)) + "\n" + format_table3(table3)
    rows = table3[:-1]  # the last row is the all-workload average
    mae = {
        "ipc_gain_mae": _mae(rows, "ipc_increase", "paper_ipc_increase"),
        "uops_removed_mae": _mae(rows, "uops_removed", "paper_uops_removed"),
        "loads_removed_mae": _mae(rows, "loads_removed", "paper_loads_removed"),
    }
    return text, mae


def render_ablation(matrix: ResultMatrix, names: list[str]) -> str:
    return format_fig9(run_fig9(matrix, names)) + "\n" + format_fig10(
        run_fig10(matrix, names)
    )


def _rpo_bins(matrix: ResultMatrix, names: list[str]) -> dict[str, int]:
    bins = dict.fromkeys(BINS, 0)
    for name in names:
        cell = (name, "RPO")
        if cell in matrix.attempted and cell not in matrix.failed:
            for key, cycles in matrix.run(name, CONFIGS["RPO"]).sim.bins.items():
                bins[key] += cycles
    return bins


def run_matrix_workload(args, names: list[str], clock: OpClock, tracer) -> dict:
    matrix = CheckedMatrix(args.seed, ArtifactStore(args.store), clock, tracer)
    outcome = {"digest": None}
    try:
        if args.workload == "fig6-cold":
            text, outcome["mae"] = render_fig6(matrix, names)
        else:
            text = render_ablation(matrix, names)
        outcome["digest"] = _digest(text)
    except KeyError:  # a failed cell: nothing to render
        pass
    clock.mark()
    outcome["end"] = time.monotonic()
    outcome["attempted"] = len(matrix.attempted)
    outcome["failed"] = len(matrix.failed)
    outcome["counters"] = get_registry().counters()
    outcome["bins"] = _rpo_bins(matrix, names)
    return outcome


def mark_programs(clock: OpClock) -> None:
    """Mark an op boundary as each fuzz program or pair starts.

    Both campaigns generate every program through this module global.
    """
    generate = campaign_module.generate_program

    def marked(*args, **kwargs):
        clock.mark()
        return generate(*args, **kwargs)

    campaign_module.generate_program = marked


def run_fuzz_workload(args, iterations: int, clock: OpClock, tracer) -> dict:
    registry = MetricsRegistry()
    mark_programs(clock)
    if args.workload == "fuzz-program":
        config = CampaignConfig(seed=args.seed, iterations=iterations, jobs=1)
        campaign = run_campaign
    else:
        config = ConfigCampaignConfig(seed=args.seed, iterations=iterations, jobs=1)
        campaign = run_config_campaign
    outcome = {"digest": None, "attempted": iterations, "failed": iterations}
    try:
        result = campaign(config, metrics=registry)
    except TaskError as exc:
        print(f"campaign failed: {exc}", file=sys.stderr)
    else:
        outcome["digest"] = result.digest
        outcome["failed"] = len(result.divergent)  # optimized_slower is not listed
    clock.mark()
    outcome["end"] = time.monotonic()
    counters = registry.counters()
    outcome["counters"] = counters
    outcome["bins"] = {name: counters.get(f"timing.bin.{name}", 0) for name in BINS}
    return outcome


def capture(args, names: list[str]) -> None:
    """Emulate and store the traces the ``ablation`` rep reads."""
    matrix = ResultMatrix(seed=args.seed, store=ArtifactStore(args.store), jobs=1)
    for name in names:
        matrix.trace(name)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", help="artifact store directory (matrix workloads)")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace-out", help="trace the rep and write spans here")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--warm", action="store_true")
    args = parser.parse_args()

    names = (QUICK_MATRIX_WORKLOADS if args.quick else MATRIX_WORKLOADS).get(
        args.workload
    )
    if args.warm:
        matrix = ResultMatrix(seed=args.seed, store=ArtifactStore(args.store), jobs=1)
        text, _ = render_fig6(matrix, names)
        print(json.dumps({"digest": _digest(text), "computed": matrix.results_computed}))
        return 0
    if args.setup_only:
        if args.workload == "ablation":
            capture(args, names)
        ready = time.monotonic()
        print(json.dumps({"ready": ready, "ready_probe_s": probe()}))
        return 0

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    ready_probe_s = probe()
    start = time.monotonic()
    clock = OpClock(probed=tracer is None)
    if names is not None:
        outcome = run_matrix_workload(args, names, clock, tracer)
    else:
        iterations = QUICK_FUZZ_ITERATIONS if args.quick else FUZZ_ITERATIONS
        outcome = run_fuzz_workload(args, iterations, clock, tracer)
    outcome["ready"] = ready
    outcome["ready_probe_s"] = ready_probe_s
    outcome["wall_s"] = outcome.pop("end") - start - clock.marking_s()
    outcome["ops"] = clock.ops()
    outcome["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counters, bins = outcome.pop("counters"), outcome.pop("bins")
    if tracer is not None:
        wall = outcome["wall_s"]
        outcome["layers"] = tracer.metrics(wall, counters, bins)
        outcome["calls"] = dict(tracer.calls)
        tracer.write(args.trace_out, wall)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
