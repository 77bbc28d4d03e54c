#!/usr/bin/env python3
"""Inspect the hardware optimizer's datapath work (paper §4).

The paper claims a pipelined hardware optimizer with a latency of 10
cycles per micro-operation is enough to run these optimizations.  This
example instruments the optimization buffer, counts the dataflow-
traversal / field-manipulation / add-remove primitives each pass
actually performs on real frames, and checks the work fits the paper's
latency budget.

Run with::

    python examples/datapath_analysis.py [workload]
"""

import sys

from repro.optimizer import FrameOptimizer, check_latency_budget, instrument
from repro.replay import ConstructorConfig, FrameConstructor
from repro.trace import MicroOpInjector
from repro.workloads import all_workloads, build_workload


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "crafty"
    available = [w.name for w in all_workloads()]
    if name not in available:
        print(f"unknown workload {name!r}; choose from {available}")
        raise SystemExit(1)

    trace = build_workload(name)
    injected = MicroOpInjector().inject_trace(trace)
    constructor = FrameConstructor(ConstructorConfig(promotion_threshold=4))
    optimizer = FrameOptimizer()

    print(f"{'frame':>10s} {'uops':>5s} {'kept':>5s} "
          f"{'parent':>7s} {'child':>6s} {'field':>6s} {'rm':>4s} "
          f"{'dp cyc':>7s} {'budget':>7s}")
    seen: set[tuple] = set()
    shown = 0
    for index in range(len(injected)):
        frame = constructor.retire(injected, index)
        if frame is None or frame.raw_uop_count < 24:
            continue
        if frame.path_key in seen:
            continue
        seen.add(frame.path_key)
        buffer = instrument(frame)
        result = optimizer.optimize(buffer)
        counts = buffer.counts
        budget = 10 * result.uops_before
        ok = check_latency_budget(counts, result.uops_before)
        print(f"{frame.start_pc:#10x} {result.uops_before:5d} "
              f"{result.uops_after:5d} {counts.parent_lookups:7d} "
              f"{counts.child_iterations:6d} {counts.field_operations:6d} "
              f"{counts.removals:4d} {counts.cycles(2):7d} {budget:7d}"
              + ("" if ok else "  OVER BUDGET"))
        shown += 1
        if shown >= 10:
            break
    print("\n(datapath cycles assume 2 primitives/cycle; the budget is the")
    print(" paper's modeled 10 cycles per incoming micro-operation)")


if __name__ == "__main__":
    main()
