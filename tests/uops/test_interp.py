"""Uop reference interpreter semantics."""

import pytest

from repro.uops import (
    AssertionFired,
    Uop,
    UopOp,
    UopState,
    UReg,
    execute_sequence,
    execute_uop,
)
from repro.uops.interp import UopExecutionError
from repro.x86.instructions import Cond


def state_with(**regs) -> UopState:
    state = UopState()
    for name, value in regs.items():
        state.regs[UReg[name]] = value
    return state


def test_limm_and_mov():
    state = UopState()
    execute_uop(state, Uop(UopOp.LIMM, dst=UReg.EAX, imm=42))
    execute_uop(state, Uop(UopOp.MOV, dst=UReg.EBX, src_a=UReg.EAX))
    assert state.regs[UReg.EBX] == 42


def test_add_with_flags():
    state = state_with(EAX=0xFFFFFFFF)
    execute_uop(
        state, Uop(UopOp.ADD, dst=UReg.EAX, src_a=UReg.EAX, imm=1, writes_flags=True)
    )
    assert state.regs[UReg.EAX] == 0
    assert state.cf and state.zf


def test_preserves_cf_keeps_carry():
    state = state_with(EAX=1)
    state.cf = True
    execute_uop(
        state,
        Uop(
            UopOp.ADD,
            dst=UReg.EAX,
            src_a=UReg.EAX,
            imm=1,
            writes_flags=True,
            preserves_cf=True,
        ),
    )
    assert state.cf  # INC semantics


def test_load_store_roundtrip():
    state = state_with(ESI=0x1000, EAX=0xBEEF)
    execute_uop(state, Uop(UopOp.STORE, src_a=UReg.ESI, imm=8, src_data=UReg.EAX))
    execute_uop(state, Uop(UopOp.LOAD, dst=UReg.EBX, src_a=UReg.ESI, imm=8))
    assert state.regs[UReg.EBX] == 0xBEEF


def test_load_uses_fallback_for_unknown_bytes():
    state = UopState()
    state.memory_fallback = lambda addr: 0x11
    execute_uop(state, Uop(UopOp.LOAD, dst=UReg.EAX, imm=0x500))
    assert state.regs[UReg.EAX] == 0x11111111


def test_load_sign_extension():
    state = state_with(ESI=0x100)
    state.write_mem(0x100, 0xFF, 1)
    load = Uop(UopOp.LOAD, dst=UReg.EAX, src_a=UReg.ESI, size=1, sign_extend=True)
    execute_uop(state, load)
    assert state.regs[UReg.EAX] == 0xFFFFFFFF


def test_address_uses_scale_and_disp():
    state = state_with(ESI=0x100, EDI=3)
    state.write_mem(0x100 + 12 + 4, 0x77, 1)
    load = Uop(UopOp.LOAD, dst=UReg.EAX, src_a=UReg.ESI, src_b=UReg.EDI,
               scale=4, imm=4, size=1)
    execute_uop(state, load)
    assert state.regs[UReg.EAX] == 0x77


def test_assert_passes_when_condition_holds():
    state = UopState()
    state.zf = True
    execute_uop(state, Uop(UopOp.ASSERT, cond=Cond.Z))  # no exception


def test_assert_fires_when_condition_fails():
    state = UopState()
    state.zf = False
    with pytest.raises(AssertionFired):
        execute_uop(state, Uop(UopOp.ASSERT, cond=Cond.Z))


def test_assert_cmp_compares_and_fires():
    state = state_with(EAX=5)
    execute_uop(
        state,
        Uop(UopOp.ASSERT_CMP, cond=Cond.Z, cmp_kind=UopOp.SUB, src_a=UReg.EAX, imm=5),
    )
    with pytest.raises(AssertionFired):
        execute_uop(
            state,
            Uop(UopOp.ASSERT_CMP, cond=Cond.Z, cmp_kind=UopOp.SUB,
                src_a=UReg.EAX, imm=6),
        )


def test_divq_divr():
    state = state_with(EAX=17, EDX=0, EBX=5)
    execute_uop(
        state,
        Uop(UopOp.DIVQ, dst=UReg.ET1, src_a=UReg.EAX, src_b=UReg.EBX,
            src_data=UReg.EDX),
    )
    execute_uop(
        state,
        Uop(UopOp.DIVR, dst=UReg.ET2, src_a=UReg.EAX, src_b=UReg.EBX,
            src_data=UReg.EDX),
    )
    assert state.regs[UReg.ET1] == 3 and state.regs[UReg.ET2] == 2


def test_div_by_zero_raises():
    state = state_with(EAX=17, EBX=0)
    with pytest.raises(UopExecutionError):
        execute_uop(
            state,
            Uop(UopOp.DIVQ, dst=UReg.ET1, src_a=UReg.EAX, src_b=UReg.EBX),
        )


def test_shift_by_zero_preserves_flags():
    state = state_with(EAX=4, ECX=0)
    state.zf = True
    execute_uop(
        state,
        Uop(UopOp.SHL, dst=UReg.EAX, src_a=UReg.EAX, src_b=UReg.ECX,
            writes_flags=True),
    )
    assert state.zf and state.regs[UReg.EAX] == 4


def test_execute_sequence_runs_in_order():
    state = UopState()
    execute_sequence(
        state,
        [
            Uop(UopOp.LIMM, dst=UReg.EAX, imm=2),
            Uop(UopOp.ADD, dst=UReg.EAX, src_a=UReg.EAX, src_b=UReg.EAX),
            Uop(UopOp.MUL, dst=UReg.EAX, src_a=UReg.EAX, imm=3),
        ],
    )
    assert state.regs[UReg.EAX] == 12


def test_dynamic_mem_address_annotation_wins():
    # When a uop carries a concrete address (the frame constructor's
    # per-instance copies do), it takes precedence over the address
    # expression (trace-driven execution).
    state = state_with(ESI=0x100)
    state.write_mem(0x900, 0x5A, 1)
    load = Uop(UopOp.LOAD, dst=UReg.EAX, src_a=UReg.ESI, size=1)
    load.mem_address = 0x900
    execute_uop(state, load)
    assert state.regs[UReg.EAX] == 0x5A
