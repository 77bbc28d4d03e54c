"""Frame constructor: bias promotion, assertion conversion, sizing."""

from dataclasses import replace

import pytest

from helpers import inject, retire_all, run_program
from repro.replay import (
    BranchBiasTable,
    ConstructorConfig,
    FrameConstructor,
    RePLaySequencer,
)
from repro.replay.constructor import closed_regions
from repro.timing import PipelineModel, default_config
from repro.trace import DynamicTrace
from repro.trace.injector import inject_once
from repro.workloads import all_workloads
from repro.uops import UopOp
from repro.x86 import Assembler, Cond, Imm, Reg, mem
from repro.x86.instructions import Mnemonic


def test_bias_promotion_after_threshold():
    table = BranchBiasTable(promotion_threshold=4)
    for _ in range(4):
        assert not table.observe(0x100, True)
    assert table.observe(0x100, True)  # fifth consecutive: promoted
    assert table.is_promoted(0x100, True)


def test_bias_reset_on_direction_change():
    table = BranchBiasTable(promotion_threshold=4)
    for _ in range(6):
        table.observe(0x100, True)
    assert not table.observe(0x100, False)  # flip breaks the run
    assert not table.is_promoted(0x100, True)
    assert not table.is_promoted(0x100, False)


def test_bias_tracks_indirect_targets():
    table = BranchBiasTable(promotion_threshold=2)
    for _ in range(3):
        table.observe(0x200, 0x4000)
    assert table.observe(0x200, 0x4000)
    assert not table.observe(0x200, 0x5000)


def loop_trace():
    asm = Assembler()
    asm.data_words(0x500000, list(range(64)))
    asm.mov(Reg.ESI, Imm(0x500000))
    asm.mov(Reg.ECX, Imm(64))
    asm.xor(Reg.EAX, Reg.EAX)
    asm.label("loop")
    asm.add(Reg.EAX, mem(Reg.ESI))
    asm.add(Reg.ESI, Imm(4))
    asm.dec(Reg.ECX)
    asm.jcc(Cond.NZ, "loop")
    asm.ret()
    _, _, trace = run_program(asm)
    return inject(trace)


def test_frames_emitted_once_branch_promoted():
    constructor = FrameConstructor(ConstructorConfig(promotion_threshold=8))
    frames = retire_all(constructor, loop_trace())
    assert frames, "biased loop must produce frames"
    # Later frames span multiple loop iterations (promoted backedge).
    assert any(f.x86_count > 4 for f in frames)


def test_mid_frame_branch_becomes_assertion():
    constructor = FrameConstructor(ConstructorConfig(promotion_threshold=4))
    frames = retire_all(constructor, loop_trace())
    multi = next(
        f for f in frames
        if any(u.op is UopOp.ASSERT for u in f.dyn_uops)
    )
    # Asserted direction: backedge taken -> assert the branch condition.
    assertion = next(u for u in multi.dyn_uops if u.op is UopOp.ASSERT)
    assert assertion.cond is not None
    assert assertion.target is None  # assertions carry no branch target


def test_frame_respects_max_uops():
    config = ConstructorConfig(promotion_threshold=2, max_uops=32)
    constructor = FrameConstructor(config)
    for frame in retire_all(constructor, loop_trace()):
        assert frame.raw_uop_count <= 32


def test_small_regions_discarded():
    config = ConstructorConfig(min_uops=8, promotion_threshold=1000)
    constructor = FrameConstructor(config)
    # With promotion impossible, every conditional branch ends a region;
    # the ~6-uop loop body falls below min_uops and is discarded (the
    # larger straight-line preamble may still form one frame).
    frames = retire_all(constructor, loop_trace())
    assert len(frames) <= 1
    assert constructor.frames_discarded > 10
    assert all(
        not any(u.op is UopOp.ASSERT for u in f.dyn_uops) for f in frames
    )


def test_frame_path_is_contiguous_trace_slice():
    constructor = FrameConstructor(ConstructorConfig(promotion_threshold=4))
    injected = loop_trace()
    position = {}
    for index in range(len(injected)):
        frame = constructor.retire(injected, index)
        if frame is not None and frame.x86_count > 4:
            # Find where this frame's first pc occurred.
            start = index - frame.x86_count + 1
            for offset, pc in enumerate(frame.x86_pcs):
                assert injected.pcs[start + offset] == pc
            break


def test_backedge_close_aligns_frames():
    config = ConstructorConfig(promotion_threshold=2, backedge_close_uops=16)
    closed = retire_all(FrameConstructor(config), loop_trace())
    # Once promoted and >= 16 uops, frames end at the loop backedge, so
    # end_next_pc equals the loop head (which is their own start).
    aligned = [f for f in closed if f.end_next_pc == f.start_pc]
    assert aligned


def test_mid_frame_indirect_becomes_value_assert(loop_asm):
    constructor = FrameConstructor(ConstructorConfig(promotion_threshold=2))
    _, _, trace = run_program(loop_asm)
    frames = retire_all(constructor, inject(trace))
    spanning = [f for f in frames if any(
        u.op is UopOp.ASSERT_CMP for u in f.dyn_uops)]
    assert spanning, "promoted RET must become a value assertion"
    assertion = next(
        u for u in spanning[0].dyn_uops if u.op is UopOp.ASSERT_CMP
    )
    assert assertion.imm is not None  # expected target embedded
    assert not assertion.writes_flags


def test_jcc_without_direction_fails_at_retire():
    # Checked at retire, not at frame-ification: most emitted frames are
    # never frame-ified, and a JCC may end a region without becoming an
    # assertion at all.
    jcc = next(
        r for r in loop_trace().records if r.instruction.mnemonic is Mnemonic.JCC
    )
    undirected = inject(DynamicTrace([replace(jcc, branch_taken=None)]))
    with pytest.raises(AssertionError):
        FrameConstructor().retire(undirected, 0)


# ------------------------------------------------- shared region stream
#
# A rePLay sequencer walks the constructor once per (stream, config) and
# replays the closed regions from that list.  It must submit exactly what
# a fresh constructor retiring the stream one instruction at a time
# returns, including at an overflowing instruction that closes two regions
# at once, where ``retire`` returns only the first.

#: Tiny frames with no size floor: an overflowing instruction that ends a
#: region closes a second, one-instruction region right behind the first.
OVERFLOW_CONFIG = ConstructorConfig(min_uops=1, max_uops=16)


def fresh_walk(injected, config):
    """``(path_key, end_next_pc)`` of every frame ``retire`` returns, and
    the number of instructions at which two regions closed."""
    constructor = FrameConstructor(config)
    finish = constructor._finish
    closed = []

    def recording_finish(*args):
        frame = finish(*args)
        closed.append(frame)
        return frame

    constructor._finish = recording_finish
    returned = []
    double_closes = 0
    for index in range(len(injected)):
        closed.clear()
        frame = constructor.retire(injected, index)
        if frame is not None:
            returned.append((frame.path_key, frame.end_next_pc))
        double_closes += sum(f is not None for f in closed) == 2
    return returned, double_closes


def submitted_regions(injected, config, pass_through):
    """``(path_key, end_next_pc)`` of every frame an RP run submits.

    With ``pass_through`` the frames reach the queue, so the run also
    dispatches frames and retires whole regions at a time.
    """
    processor = default_config()
    sequencer = RePLaySequencer(injected, processor, None, constructor_config=config)
    submit = sequencer.queue.submit
    submitted = []

    def recording_submit(frame, now):
        submitted.append((frame.path_key, frame.end_next_pc))
        return submit(frame, now) if pass_through else False

    sequencer.queue.submit = recording_submit
    result = PipelineModel(processor).simulate(sequencer)
    assert result.x86_retired == len(injected)
    return submitted, result


@pytest.mark.parametrize("workload", [w.name for w in all_workloads()])
def test_memoized_regions_submit_what_retire_returns(matrix, workload):
    injected = inject_once(matrix.trace(workload))
    expected, _ = fresh_walk(injected, ConstructorConfig())
    submitted, result = submitted_regions(injected, ConstructorConfig(), True)
    assert submitted == expected
    assert result.frames_fetched > 0
    expected, _ = fresh_walk(injected, OVERFLOW_CONFIG)
    submitted, _ = submitted_regions(injected, OVERFLOW_CONFIG, False)
    assert submitted == expected


def test_overflow_closing_two_regions_is_covered(matrix):
    injected = inject_once(matrix.trace("crafty"))
    returned, double_closes = fresh_walk(injected, OVERFLOW_CONFIG)
    assert double_closes > 100
    assert closed_regions(injected, OVERFLOW_CONFIG) is closed_regions(
        injected, replace(OVERFLOW_CONFIG)
    )
    assert len(closed_regions(injected, OVERFLOW_CONFIG)) == len(returned)
