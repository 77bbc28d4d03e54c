"""Trace-cache baseline: fill unit, cache, partial-match sequencing."""

from helpers import inject, run_program
from repro.replay import FrameCache
from repro.timing.config import default_config
from repro.timing.pipeline import PipelineModel
from repro.tracecache import FillUnit, TraceCacheSequencer, TraceLine
from repro.x86 import Assembler, Cond, Imm, Reg, mem


def loop_injected(iterations=100):
    asm = Assembler()
    asm.data_words(0x500000, list(range(64)))
    asm.mov(Reg.ESI, Imm(0x500000))
    asm.mov(Reg.ECX, Imm(iterations))
    asm.xor(Reg.EAX, Reg.EAX)
    asm.label("loop")
    asm.add(Reg.EAX, mem(Reg.ESI))
    asm.add(Reg.ESI, Imm(4))
    asm.cmp(Reg.ESI, Imm(0x500000 + 63 * 4))
    asm.jcc(Cond.B, "nowrap")
    asm.mov(Reg.ESI, Imm(0x500000))
    asm.label("nowrap")
    asm.dec(Reg.ECX)
    asm.jcc(Cond.NZ, "loop")
    asm.ret()
    _, _, trace = run_program(asm)
    return inject(trace)


def fill_lines(fill, injected):
    """Retire a whole stream through ``fill``; the lines it completes."""
    lines = (fill.retire(injected, i) for i in range(len(injected)))
    return [line for line in lines if line is not None]


def static_instructions(injected):
    return {record.pc: record.instruction for record in injected.records}


def test_fill_unit_bounds_branches():
    """Two branches per iteration, few uops: lines end at the third."""
    injected = loop_injected()
    instruction_at = static_instructions(injected)
    lines = fill_lines(FillUnit(), injected)
    branches = [
        sum(instruction_at[pc].is_conditional for pc in line.x86_pcs)
        for line in lines
    ]
    assert max(branches) == FillUnit.MAX_BRANCHES == 3
    assert all(line.uop_count < FillUnit.MAX_UOPS for line in lines)


def test_fill_unit_bounds_uops():
    """One branch per 25 loads: the 32-uop limit closes the lines."""
    asm = Assembler()
    asm.data_words(0x500000, [1])
    asm.mov(Reg.ESI, Imm(0x500000))
    asm.mov(Reg.ECX, Imm(20))
    asm.label("loop")
    for _ in range(25):
        asm.add(Reg.EAX, mem(Reg.ESI))
    asm.dec(Reg.ECX)
    asm.jcc(Cond.NZ, "loop")
    asm.ret()
    _, _, trace = run_program(asm)
    lines = fill_lines(FillUnit(), inject(trace))
    assert len(lines) > 20
    assert all(line.uop_count <= FillUnit.MAX_UOPS == 32 for line in lines)
    assert max(line.uop_count for line in lines) > FillUnit.MAX_UOPS - 3


def test_fill_unit_terminates_at_indirect(loop_asm):
    _, _, trace = run_program(loop_asm)
    injected = inject(trace)
    instruction_at = static_instructions(injected)
    lines = fill_lines(FillUnit(), injected)
    rets = [l for l in lines if instruction_at[l.x86_pcs[-1]].is_indirect]
    assert rets  # RETs close trace lines


def test_trace_cache_lru_capacity():
    """Trace lines share the frame cache's store and its uop budget."""
    cache = FrameCache(capacity_uops=20)
    fill = FillUnit()
    inserted = 0
    injected = loop_injected()
    for index in range(len(injected)):
        line = fill.retire(injected, index)
        if line is not None:
            cache.insert(line)
            inserted += 1
        if inserted > 5:
            break
    assert inserted > 5
    assert cache.stored_uops <= 20
    assert cache.evictions > 0


def test_newer_trace_line_always_replaces_same_pc():
    """A line is never ``proven``: the newest line for a PC wins, whether
    it is larger or smaller than the one it replaces."""
    cache = FrameCache(capacity_uops=100)
    old = TraceLine(start_pc=0x1000, x86_pcs=[0x1000, 0x1004, 0x1008], uop_count=9)
    smaller = TraceLine(start_pc=0x1000, x86_pcs=[0x1000], uop_count=2)
    larger = TraceLine(
        start_pc=0x1000, x86_pcs=[0x1000, 0x1010, 0x1020, 0x1030], uop_count=20
    )
    for line in (old, smaller, larger, smaller):
        assert cache.insert(line)
        assert cache.lookup(0x1000) is line
        assert len(cache) == 1
        assert cache.stored_uops == line.uop_count
    assert cache.rejections == 0


def test_sequencer_runs_and_covers():
    injected = loop_injected(300)
    config = default_config()
    sequencer = TraceCacheSequencer(injected, config)
    result = PipelineModel(config).simulate(sequencer)
    assert result.x86_retired == len(injected)
    assert result.coverage > 0.3  # hot loop served from the trace cache
    assert sequencer.trace_cache.hits > 0


def test_partial_match_truncates_not_fires():
    injected = loop_injected(300)
    config = default_config()
    sequencer = TraceCacheSequencer(injected, config)
    result = PipelineModel(config).simulate(sequencer)
    # Traces are not atomic: no assertion recovery cycles ever.
    assert result.bins["assert"] == 0
    assert result.frames_fired == 0
