"""Frame constructor: bias promotion, assertion conversion, sizing."""

from dataclasses import replace

import pytest

from helpers import inject, run_program
from repro.replay import BranchBiasTable, ConstructorConfig, FrameConstructor
from repro.trace.injector import InjectedInstruction
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
    frames = []
    for instr in loop_trace():
        frame = constructor.retire(instr)
        if frame is not None:
            frames.append(frame)
    assert frames, "biased loop must produce frames"
    # Later frames span multiple loop iterations (promoted backedge).
    assert any(f.x86_count > 4 for f in frames)


def test_mid_frame_branch_becomes_assertion():
    constructor = FrameConstructor(ConstructorConfig(promotion_threshold=4))
    frames = []
    for instr in loop_trace():
        frame = constructor.retire(instr)
        if frame is not None:
            frames.append(frame)
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
    for instr in loop_trace():
        frame = constructor.retire(instr)
        if frame is not None:
            assert frame.raw_uop_count <= 32


def test_small_regions_discarded():
    config = ConstructorConfig(min_uops=8, promotion_threshold=1000)
    constructor = FrameConstructor(config)
    # With promotion impossible, every conditional branch ends a region;
    # the ~6-uop loop body falls below min_uops and is discarded (the
    # larger straight-line preamble may still form one frame).
    frames = [
        f for f in (constructor.retire(i) for i in loop_trace()) if f is not None
    ]
    assert len(frames) <= 1
    assert constructor.frames_discarded > 10
    assert all(
        not any(u.op is UopOp.ASSERT for u in f.dyn_uops) for f in frames
    )


def test_frame_path_is_contiguous_trace_slice():
    constructor = FrameConstructor(ConstructorConfig(promotion_threshold=4))
    injected = loop_trace()
    position = {}
    for index, instr in enumerate(injected):
        frame = constructor.retire(instr)
        if frame is not None and frame.x86_count > 4:
            # Find where this frame's first pc occurred.
            start = index - frame.x86_count + 1
            for offset, pc in enumerate(frame.x86_pcs):
                assert injected[start + offset].record.pc == pc
            break


def test_backedge_close_aligns_frames():
    config = ConstructorConfig(promotion_threshold=2, backedge_close_uops=16)
    constructor = FrameConstructor(config)
    closed = []
    for instr in loop_trace():
        frame = constructor.retire(instr)
        if frame is not None:
            closed.append(frame)
    # Once promoted and >= 16 uops, frames end at the loop backedge, so
    # end_next_pc equals the loop head (which is their own start).
    aligned = [f for f in closed if f.end_next_pc == f.start_pc]
    assert aligned


def test_mid_frame_indirect_becomes_value_assert(loop_asm):
    constructor = FrameConstructor(ConstructorConfig(promotion_threshold=2))
    _, _, trace = run_program(loop_asm)
    frames = []
    for instr in inject(trace):
        frame = constructor.retire(instr)
        if frame is not None:
            frames.append(frame)
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
        i for i in loop_trace() if i.record.instruction.mnemonic is Mnemonic.JCC
    )
    undirected = InjectedInstruction(
        replace(jcc.record, branch_taken=None), jcc.uops, jcc.addresses
    )
    with pytest.raises(AssertionError):
        FrameConstructor().retire(undirected)
