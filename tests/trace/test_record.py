"""Trace records and memory-op overlap tests."""

import pickle

import pytest

from repro.trace import MemOp, TraceRecord
from repro.x86.instructions import Imm, Instruction, Mnemonic
from repro.x86.registers import Reg


def test_memop_overlap_same_word():
    a = MemOp(is_store=True, address=0x100, size=4, data=0)
    b = MemOp(is_store=False, address=0x102, size=2, data=0)
    assert a.overlaps(b) and b.overlaps(a)


def test_memop_adjacent_no_overlap():
    a = MemOp(is_store=True, address=0x100, size=4, data=0)
    b = MemOp(is_store=False, address=0x104, size=4, data=0)
    assert not a.overlaps(b)


def test_memop_byte_within_word():
    word = MemOp(is_store=True, address=0x100, size=4, data=0)
    byte = MemOp(is_store=False, address=0x103, size=1, data=0)
    assert word.overlaps(byte)


def test_record_load_store_partition():
    record = TraceRecord(
        pc=0x1000,
        instruction=Instruction(Mnemonic.NOP),
        next_pc=0x1001,
        mem_ops=(
            MemOp(is_store=False, address=0x10, size=4, data=1),
            MemOp(is_store=True, address=0x20, size=4, data=2),
        ),
    )
    assert len(record.loads) == 1 and record.loads[0].address == 0x10
    assert len(record.stores) == 1 and record.stores[0].address == 0x20


def test_record_branch_classification():
    add = TraceRecord(
        pc=0, instruction=Instruction(Mnemonic.ADD, (Reg.EAX, Imm(1))), next_pc=4
    )
    assert not add.instruction.is_branch and not add.is_conditional_branch


def test_memop_is_a_value():
    """Equal, hashable, immutable and picklable by value; loads and stores
    are told apart by ``is_load``."""
    load = MemOp(False, 0x100, 4, 7)
    assert load == MemOp(is_store=False, address=0x100, size=4, data=7)
    assert load != MemOp(True, 0x100, 4, 7)
    assert hash(load) == hash(MemOp(False, 0x100, 4, 7))
    assert len({load, MemOp(False, 0x100, 4, 7)}) == 1
    assert pickle.loads(pickle.dumps(load)) == load
    assert load.is_load and not MemOp(True, 0x100, 4, 7).is_load
    with pytest.raises(AttributeError):
        load.data = 8


def test_record_is_slotted():
    """A trace holds one record per retired instruction: no per-record dict."""
    record = TraceRecord(pc=0, instruction=Instruction(Mnemonic.NOP), next_pc=1)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1
    assert pickle.loads(pickle.dumps(record)) == record
