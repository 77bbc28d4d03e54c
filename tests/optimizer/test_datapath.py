"""Optimizer datapath primitive-cost model (paper §4)."""

from repro.harness.fig2 import build_figure2_frame
from repro.optimizer import FrameOptimizer
from repro.optimizer.datapath import (
    InstrumentedBuffer,
    PrimitiveCounts,
    check_latency_budget,
    instrument,
)
from repro.trace import MicroOpInjector
from repro.replay import ConstructorConfig, FrameConstructor


def optimize_instrumented(frame):
    buffer = instrument(frame)
    result = FrameOptimizer().optimize(buffer)
    return buffer, result


def test_counts_accumulate_on_figure2():
    frame = build_figure2_frame()
    buffer, result = optimize_instrumented(frame)
    counts = buffer.counts
    assert counts.removals == result.uops_removed == 7
    assert counts.field_operations > 0
    assert counts.total > 0


def test_instrumented_buffer_matches_plain_optimization():
    plain = build_figure2_frame()
    plain.build_buffer()
    plain_result = FrameOptimizer().optimize(plain.buffer)

    instrumented = build_figure2_frame()
    _, inst_result = optimize_instrumented(instrumented)
    assert inst_result.uops_after == plain_result.uops_after
    assert instrumented.buffer.dump() == plain.buffer.dump()


def test_remapping_not_counted():
    frame = build_figure2_frame()
    buffer = instrument(frame)
    # Construction (the Remapper) finished without tallying primitives.
    assert buffer.counts.total == 0


def test_figure2_fits_paper_latency_budget():
    frame = build_figure2_frame()
    buffer, result = optimize_instrumented(frame)
    assert check_latency_budget(buffer.counts, result.uops_before)


def test_large_frame_fits_paper_latency_budget(matrix):
    trace = matrix.trace("eon")
    injected = MicroOpInjector().inject_trace(trace)
    constructor = FrameConstructor(ConstructorConfig(promotion_threshold=2))
    checked = 0
    for instr in injected:
        frame = constructor.retire(instr)
        if frame is None or frame.raw_uop_count < 64:
            continue
        buffer, result = optimize_instrumented(frame)
        assert check_latency_budget(buffer.counts, result.uops_before), (
            f"frame @ {frame.start_pc:#x}: {buffer.counts.total} primitives "
            f"exceed 10 cycles/uop x {result.uops_before} uops"
        )
        checked += 1
        if checked >= 5:
            break
    assert checked >= 1


def test_primitive_counts_cycles_rounding():
    counts = PrimitiveCounts(field_operations=5)
    assert counts.cycles(ops_per_cycle=2) == 3
    assert counts.cycles(ops_per_cycle=1) == 5
