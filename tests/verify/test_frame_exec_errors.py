"""Frame-execution error paths and assertion-fire rollback.

``execute_frame`` is the oracle both the State Verifier and the fuzz
replay leg stand on; these tests pin down its failure modes — dangling
slot references after invalidation, memory-map gaps at byte granularity,
division faults — and the atomic-rollback contract of a fired frame.
"""

import pytest

from helpers import buffer_from_uops
from repro.uops import Uop, UopOp, UReg
from repro.verify import frame_exec
from repro.verify.frame_exec import FrameExecutionError, execute_frame
from repro.x86.instructions import Cond
from repro.x86.registers import Flag

ZERO_FLAGS = (False, False, False, False)


def regs(**overrides):
    base = {UReg(i): 0 for i in range(8)}
    for name, value in overrides.items():
        base[UReg[name]] = value
    return base


def run(uops, live_in=None, flags=ZERO_FLAGS, memory=None):
    buffer = buffer_from_uops(uops)
    reader = (memory or {}).get
    return buffer, execute_frame(buffer, live_in or regs(), flags, reader)


# ------------------------------------------------------- dangling slots


def test_use_of_invalidated_value_slot_is_an_error():
    uops = [
        Uop(UopOp.LIMM, dst=UReg.EAX, imm=5),
        Uop(UopOp.ADD, dst=UReg.EBX, src_a=UReg.EAX, imm=1),
    ]
    buffer = buffer_from_uops(uops)
    # Slot 1 reads slot 0 through a DefRef; invalidating the producer
    # without rewiring the consumer must fail loudly, not read garbage.
    assert any(
        getattr(operand, "slot", None) == 0
        for operand in (buffer.uops[1].src_a, buffer.uops[1].src_b)
    )
    buffer.uops[0].valid = False
    with pytest.raises(FrameExecutionError, match="unset slot"):
        execute_frame(buffer, regs(), ZERO_FLAGS, lambda a: 0)


def test_use_of_invalidated_flags_slot_is_an_error():
    uops = [
        Uop(UopOp.SUB, dst=None, src_a=UReg.EAX, imm=1, writes_flags=True),
        Uop(UopOp.ASSERT, cond=Cond.NZ),
    ]
    buffer = buffer_from_uops(uops)
    assert buffer.uops[1].flags_src == 0
    buffer.uops[0].valid = False
    with pytest.raises(FrameExecutionError, match="unset flags slot"):
        execute_frame(buffer, regs(), ZERO_FLAGS, lambda a: 0)


# --------------------------------------------------------- memory gaps


def test_partially_covered_load_is_an_error():
    """Memory-map coverage is per byte: one known byte is not enough."""
    load = Uop(UopOp.LOAD, dst=UReg.EAX, src_a=UReg.ESI, imm=0)
    buffer = buffer_from_uops([load])
    memory = {0x100: 0xAB}  # bytes 0x101..0x103 unknown
    with pytest.raises(FrameExecutionError, match="initial memory map"):
        execute_frame(buffer, regs(ESI=0x100), ZERO_FLAGS, memory.get)


def test_frame_store_covers_a_following_load():
    """Bytes written inside the frame never consult the memory map."""
    uops = [
        Uop(UopOp.LIMM, dst=UReg.ET0, imm=0x11223344),
        Uop(UopOp.STORE, src_a=UReg.ESI, imm=0, src_data=UReg.ET0),
        Uop(UopOp.LOAD, dst=UReg.EAX, src_a=UReg.ESI, imm=0),
    ]
    _, outcome = run(uops, live_in=regs(ESI=0x400))
    assert outcome.final_regs[UReg.EAX] == 0x11223344


# ----------------------------------------------------------- divisions


def test_divr_by_zero_is_an_error():
    div = Uop(UopOp.DIVR, dst=UReg.EDX, src_a=UReg.EAX, src_b=UReg.EBX)
    buffer = buffer_from_uops([div])
    with pytest.raises(FrameExecutionError, match="division by zero"):
        execute_frame(buffer, regs(EAX=10), ZERO_FLAGS, lambda a: 0)


# ------------------------------------------------- assertion-fire paths


def _firing_uops():
    return [
        Uop(UopOp.LIMM, dst=UReg.EBX, imm=0xBEEF),
        Uop(UopOp.LIMM, dst=UReg.ET0, imm=0x77),
        Uop(UopOp.STORE, src_a=UReg.ESI, imm=0, src_data=UReg.ET0),
        Uop(UopOp.SUB, dst=None, src_a=UReg.EAX, imm=1, writes_flags=True),
        Uop(UopOp.ASSERT, cond=Cond.Z),  # EAX=0: 0-1 != 0 -> fires
        Uop(UopOp.LIMM, dst=UReg.EDX, imm=0xDEAD),
    ]


def test_fired_frame_rolls_back_registers():
    _, outcome = run(_firing_uops(), live_in=regs(EBX=1, EDX=2, ESI=0x500))
    assert outcome.fired and outcome.firing_slot == 4
    assert not outcome.committed
    # Writes before AND after the firing slot roll back to live-in.
    assert outcome.final_regs[UReg.EBX] == 1
    assert outcome.final_regs[UReg.EDX] == 2


def test_fired_frame_rolls_back_flags():
    live_in_flags = (True, False, True, False)  # CF, SF set at entry
    _, outcome = run(
        _firing_uops(), live_in=regs(ESI=0x500), flags=live_in_flags
    )
    assert outcome.fired
    # The SUB before the assert wrote flags; atomic rollback must
    # restore the entry flag word regardless.
    assert bool(outcome.final_flags & (1 << Flag.CF))
    assert bool(outcome.final_flags & (1 << Flag.SF))
    assert not outcome.final_flags & (1 << Flag.ZF)


def test_fire_stops_execution_but_reports_prior_stores():
    """Stores preceding the fire are reported (the caller decides what a
    fire means for them); nothing after the firing slot executes."""
    _, outcome = run(_firing_uops(), live_in=regs(ESI=0x500))
    assert outcome.stores == [(0x500, 4, 0x77)]
    assert UReg.EDX not in {  # slot 5 never ran
        reg for reg, value in outcome.final_regs.items() if value == 0xDEAD
    }


def test_assert_cmp_fires_on_value_mismatch():
    uops = [
        Uop(
            UopOp.ASSERT_CMP,
            cond=Cond.Z,
            cmp_kind=UopOp.SUB,
            src_a=UReg.EAX,
            imm=0x1234,
            writes_flags=False,
        ),
    ]
    _, hit = run(uops, live_in=regs(EAX=0x1234))
    assert not hit.fired
    _, miss = run(uops, live_in=regs(EAX=0x9999))
    assert miss.fired and miss.firing_slot == 0


def test_holding_assertion_does_not_fire():
    uops = [
        Uop(UopOp.SUB, dst=None, src_a=UReg.EAX, imm=0, writes_flags=True),
        Uop(UopOp.ASSERT, cond=Cond.Z),  # 0-0 == 0: holds
        Uop(UopOp.LIMM, dst=UReg.EDX, imm=7),
    ]
    _, outcome = run(uops)
    assert not outcome.fired and outcome.firing_slot is None
    assert outcome.final_regs[UReg.EDX] == 7


# ------------------------------------------------------- dispatch table


def test_every_non_memory_op_has_a_handler():
    # Loads and stores run in execute_frame itself; every other opcode
    # dispatches through the one handler table.
    memory_ops = {UopOp.LOAD, UopOp.STORE}
    assert set(frame_exec._HANDLERS) == set(UopOp) - memory_ops


def test_op_without_a_handler_is_an_error(monkeypatch):
    monkeypatch.delitem(frame_exec._HANDLERS, UopOp.ADD)
    with pytest.raises(FrameExecutionError, match="unimplemented uop"):
        run([Uop(UopOp.ADD, dst=UReg.EAX, src_a=UReg.EAX, imm=1)])
