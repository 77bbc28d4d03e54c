"""Optimization buffer: remapping, dependency lists, live-outs."""

import dataclasses

import pytest

from helpers import (
    OPTIMIZER_OUTPUT_DIGEST,
    buffer_from_uops,
    buffer_output,
    output_digest,
    remap,
    variant_outputs,
)
from repro.optimizer import BufferError, DefRef, LiveIn, OptUop
from repro.uops import Uop, UopOp, UReg
from repro.x86.instructions import Cond


def simple_uops():
    return [
        Uop(UopOp.LIMM, dst=UReg.EAX, imm=1),  # slot 0
        Uop(UopOp.ADD, dst=UReg.EBX, src_a=UReg.EAX, src_b=UReg.ECX,
            writes_flags=True),  # slot 1
        Uop(UopOp.MOV, dst=UReg.EAX, src_a=UReg.EBX),  # slot 2
        Uop(UopOp.ASSERT, cond=Cond.Z),  # slot 3, reads slot 1's flags
    ]


def test_remap_binds_live_ins_and_defs():
    buf = buffer_from_uops(simple_uops())
    add = buf.uops[1]
    assert add.src_a == DefRef(0)  # EAX defined by slot 0
    assert add.src_b == LiveIn(UReg.ECX)  # never defined in frame


def test_dst_equals_slot_number():
    buf = buffer_from_uops(simple_uops())
    for slot, uop in enumerate(buf.uops):
        assert uop.slot == slot


def test_flags_chain_tracked():
    buf = buffer_from_uops(simple_uops())
    assertion = buf.uops[3]
    assert assertion.flags_src == 1
    assert buf.flags_children[1] == {3}


def test_live_out_is_last_writer():
    buf = buffer_from_uops(simple_uops())
    assert buf.live_out[UReg.EAX] == DefRef(2)
    assert buf.live_out[UReg.EBX] == DefRef(1)
    assert UReg.ECX not in buf.live_out  # unwritten regs stay live-in
    assert buf.flags_live_out_slot == 1


def test_dependency_lists_populated():
    buf = buffer_from_uops(simple_uops())
    assert buf.value_children[0] == {1}
    assert buf.value_children[1] == {2}


def test_undefined_temp_rejected():
    with pytest.raises(BufferError, match="undefined temporary"):
        buffer_from_uops([Uop(UopOp.MOV, dst=UReg.EAX, src_a=UReg.ET0)])


def test_replace_all_uses_rewires_children_and_liveout():
    buf = buffer_from_uops(simple_uops())
    count = buf.replace_all_uses(2, DefRef(1))
    assert count >= 1
    assert buf.live_out[UReg.EAX] == DefRef(1)
    assert not buf.value_children[2]


def test_invalidate_with_children_rejected():
    buf = buffer_from_uops(simple_uops())
    with pytest.raises(BufferError, match="children"):
        buf.invalidate(0)


def test_invalidate_detaches_from_parents():
    buf = buffer_from_uops(simple_uops())
    buf.replace_all_uses(2, DefRef(1))
    buf.invalidate(2)
    assert not buf.uops[2].valid
    assert 2 not in buf.value_children[1]


def test_replace_flags_uses():
    uops = [
        Uop(UopOp.SUB, dst=None, src_a=UReg.EAX, imm=1, writes_flags=True),
        Uop(UopOp.SUB, dst=None, src_a=UReg.EAX, imm=1, writes_flags=True),
        Uop(UopOp.ASSERT, cond=Cond.Z),
    ]
    buf = buffer_from_uops(uops)
    assert buf.uops[2].flags_src == 1
    buf.replace_flags_uses(1, 0)
    assert buf.uops[2].flags_src == 0
    assert buf.flags_live_out_slot == 0


def test_value_protected_slots_frame_vs_block():
    uops = [
        Uop(UopOp.LIMM, dst=UReg.EAX, imm=1),  # block 0, overwritten later
        Uop(UopOp.BR, cond=Cond.Z, target=0),  # block boundary
        Uop(UopOp.LIMM, dst=UReg.EAX, imm=2),  # block 1, final
    ]
    buf = buffer_from_uops(uops, block_starts=[0, 2])
    frame_protected = buf.value_protected_slots("frame")
    block_protected = buf.value_protected_slots("block")
    assert 0 not in frame_protected  # atomic frame: only final EAX matters
    assert 2 in frame_protected
    assert 0 in block_protected  # control may exit between the blocks
    assert 2 in block_protected


def test_mem_slots_in_order():
    uops = [
        Uop(UopOp.STORE, src_a=UReg.ESP, imm=-4, src_data=UReg.EBP),
        Uop(UopOp.LIMM, dst=UReg.EAX, imm=0),
        Uop(UopOp.LOAD, dst=UReg.EBX, src_a=UReg.ESP, imm=-4),
    ]
    buf = buffer_from_uops(uops)
    assert buf.mem_slots() == [0, 2]


def test_counts():
    buf = buffer_from_uops(simple_uops())
    assert buf.valid_count() == 4
    assert buf.load_count() == 0
    assert buf.store_count() == 0


def test_dump_lists_valid_slots():
    buf = buffer_from_uops(simple_uops())
    dump = buf.dump()
    assert dump.count("\n") == 3  # four lines
    assert "EAX" in dump


# ------------------------------------------------------------- copies


def test_optuop_copy_keeps_every_field():
    # Every field differs from its default and no two non-flag fields
    # share a value, so a dropped or shifted positional argument in
    # OptUop.copy cannot compare equal.
    uop = OptUop(
        op=UopOp.STORE,
        slot=3,
        valid=False,
        src_a=DefRef(1),
        src_b=LiveIn(UReg.ESI),
        src_data=DefRef(2),
        imm=0x40,
        scale=4,
        size=2,
        sign_extend=True,
        cond=Cond.NZ,
        cmp_kind=UopOp.SUB,
        target=0x401000,
        writes_flags=True,
        preserves_cf=True,
        arch_dst=UReg.EDI,
        flags_src=5,
        x86_pc=0x400010,
        x86_index=6,
        mem_key=(6, 1),
        observed_address=0x500000,
        unsafe=True,
        unsafe_guards=[7, 8],
        position=9,
    )
    defaults = OptUop(op=UopOp.NOP, slot=0)
    for fld in dataclasses.fields(OptUop):
        assert getattr(uop, fld.name) != getattr(defaults, fld.name), fld.name
    clone = uop.copy()
    assert clone == uop and clone is not uop
    assert clone.unsafe_guards is not uop.unsafe_guards


def _source_state(buf):
    return (
        buffer_output(buf),
        [set(children) for children in buf.value_children],
        [set(children) for children in buf.flags_children],
        [list(uop.unsafe_guards) for uop in buf.uops],
    )


def test_copy_optimizes_like_a_fresh_remap(oracle_frames):
    # One remap per frame, copied once per oracle variant: the copies
    # must optimize to the pinned fresh-remap output, and optimizing them
    # must leave the source buffers untouched.
    sources = {frame: remap(frame) for frame in oracle_frames}
    before = [_source_state(buf) for buf in sources.values()]
    outputs = variant_outputs(oracle_frames, lambda frame: sources[frame].copy())
    assert output_digest(outputs) == OPTIMIZER_OUTPUT_DIGEST
    assert [_source_state(buf) for buf in sources.values()] == before
