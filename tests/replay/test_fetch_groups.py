"""ICache fetch-group construction."""

import pytest

from helpers import inject, run_program
from repro.replay.fetch_groups import build_icache_block, is_taken_transfer
from repro.replay.sequencer import ICacheSequencer
from repro.timing.config import default_config
from repro.timing.schedule import ScheduleBuilder
from repro.trace.injector import inject_once
from repro.tracecache import TraceCacheSequencer
from repro.uops import UopOp
from repro.workloads import all_workloads
from repro.x86 import Assembler, Cond, Imm, Reg


def straight_line_injected(n=12):
    asm = Assembler()
    for i in range(n):
        asm.add(Reg.EAX, Imm(i + 1))
    asm.ret()
    _, _, trace = run_program(asm)
    return inject(trace)


def icache_block(injected, index, config=None, stop_probe=None):
    config = config or default_config()
    sched = ScheduleBuilder(config).line_schedule(injected)
    return build_icache_block(injected, index, config, sched, stop_probe=stop_probe)


def test_group_limited_by_decode_width():
    injected = straight_line_injected()
    config = default_config()
    block, count = icache_block(injected, 0, config)
    assert count == config.x86_decode_width == 4
    assert block.x86_count == 4


def test_group_limited_by_uop_budget():
    # PUSH = 2 uops each: five pushes exceed the 8-uop fetch width.
    asm = Assembler()
    for _ in range(6):
        asm.push(Reg.EAX)
    for _ in range(6):
        asm.pop(Reg.EBX)
    asm.ret()
    _, _, trace = run_program(asm)
    injected = inject(trace)
    block, count = icache_block(injected, 0)
    assert block.hi - block.lo <= default_config().fetch_width
    assert count == 4


def test_group_breaks_at_taken_branch():
    asm = Assembler()
    asm.mov(Reg.EAX, Imm(1))
    asm.jmp("far")
    asm.nop()
    asm.label("far")
    asm.mov(Reg.EBX, Imm(2))
    asm.ret()
    _, _, trace = run_program(asm)
    injected = inject(trace)
    block, count = icache_block(injected, 0)
    assert count == 2  # mov + jmp; fetch redirects


def test_not_taken_branch_does_not_break_group():
    asm = Assembler()
    asm.xor(Reg.EAX, Reg.EAX)
    asm.test(Reg.EAX, Reg.EAX)
    asm.jcc(Cond.NZ, "skip")  # not taken
    asm.mov(Reg.EBX, Imm(2))
    asm.label("skip")
    asm.ret()
    _, _, trace = run_program(asm)
    injected = inject(trace)
    block, count = icache_block(injected, 1)
    assert count >= 3  # test, jcc(nt), mov flow together


def test_stop_probe_truncates():
    injected = straight_line_injected()
    target = injected.pcs[2]
    block, count = icache_block(injected, 0, stop_probe=lambda pc: pc == target)
    assert count == 2


def test_branch_event_kinds(loop_asm):
    _, _, trace = run_program(loop_asm)
    kinds = {event.kind for event in inject(trace).events.values()}
    assert {"cond", "call", "ret"} <= kinds


def test_is_taken_transfer(loop_asm):
    _, _, trace = run_program(loop_asm)
    injected = inject(trace)
    for record in injected.records:
        expected = (
            record.instruction.is_branch
            and record.next_pc != record.pc + record.instruction.length
        )
        assert is_taken_transfer(record) == expected


def test_byte_extent_covers_group():
    injected = straight_line_injected()
    block, count = icache_block(injected, 0)
    assert block.byte_start == injected.pcs[0]
    last = injected.records[count - 1]
    assert block.byte_end == last.pc + last.instruction.length


CONTROL_OPS = (UopOp.BR, UopOp.JMP, UopOp.JMPI)


@pytest.mark.parametrize("workload", [w.name for w in all_workloads()])
@pytest.mark.parametrize("sequencer_class", [ICacheSequencer, TraceCacheSequencer])
def test_branch_events_keyed_by_control_uop_position(
    matrix, workload, sequencer_class
):
    """Line blocks are consecutive windows over the stream's flat arrays,
    and every event key inside a window sits on a control uop."""
    injected = inject_once(matrix.trace(workload))
    sequencer = sequencer_class(injected, default_config())
    sources = set()
    events = 0
    hi = 0
    while (block := sequencer.next_block(0)) is not None:
        sources.add(block.source)
        assert block.uops is injected.uops
        assert block.addresses is injected.addresses
        assert block.branch_events is injected.events
        assert block.lo == hi < block.hi
        hi = block.hi
        keys = [k for k in range(block.lo, block.hi) if k in injected.events]
        for key in keys:
            assert block.uops[key].op in CONTROL_OPS
        events += len(keys)
    assert hi == len(injected.uops)
    assert events == len(injected.events) > 0
    if sequencer_class is TraceCacheSequencer:
        assert "tcache" in sources
