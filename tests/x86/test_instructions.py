"""Instruction/operand model and encoded-length estimation."""

from dataclasses import replace

import pytest

from repro.x86.instructions import (
    Cond,
    Imm,
    Instruction,
    Label,
    Mem,
    Mnemonic,
    cond_holds,
    estimate_length,
)
from repro.x86.registers import Reg


def test_mem_operand_validation_scale():
    with pytest.raises(ValueError):
        Mem(base=Reg.EAX, index=Reg.EBX, scale=3)


def test_mem_operand_validation_size():
    with pytest.raises(ValueError):
        Mem(base=Reg.EAX, size=8)


def test_mem_operand_needs_something():
    with pytest.raises(ValueError):
        Mem()


def test_mem_absolute_is_allowed():
    operand = Mem(disp=0x1000)
    assert operand.base is None and operand.disp == 0x1000


def test_cond_inverse_is_involutive():
    for cond in Cond:
        assert cond.inverse().inverse() is cond


def test_cond_inverse_pairs():
    assert Cond.Z.inverse() is Cond.NZ
    assert Cond.L.inverse() is Cond.GE
    assert Cond.BE.inverse() is Cond.A


@pytest.mark.parametrize(
    "cond,flags,expected",
    [
        (Cond.Z, dict(cf=False, zf=True, sf=False, of=False), True),
        (Cond.NZ, dict(cf=False, zf=True, sf=False, of=False), False),
        (Cond.L, dict(cf=False, zf=False, sf=True, of=False), True),
        (Cond.L, dict(cf=False, zf=False, sf=True, of=True), False),
        (Cond.G, dict(cf=False, zf=False, sf=False, of=False), True),
        (Cond.G, dict(cf=False, zf=True, sf=False, of=False), False),
        (Cond.B, dict(cf=True, zf=False, sf=False, of=False), True),
        (Cond.A, dict(cf=False, zf=False, sf=False, of=False), True),
        (Cond.A, dict(cf=True, zf=False, sf=False, of=False), False),
        (Cond.BE, dict(cf=False, zf=True, sf=False, of=False), True),
        (Cond.S, dict(cf=False, zf=False, sf=True, of=False), True),
        (Cond.NS, dict(cf=False, zf=False, sf=True, of=False), False),
    ],
)
def test_cond_holds_semantics(cond, flags, expected):
    assert cond_holds(cond, **flags) is expected


def test_is_branch_classification():
    jcc = Instruction(Mnemonic.JCC, (Label("x"),), cond=Cond.Z)
    add = Instruction(Mnemonic.ADD, (Reg.EAX, Imm(1)))
    assert jcc.is_branch and jcc.is_conditional
    assert not add.is_branch


def test_is_branch_field_stays_out_of_eq_and_repr():
    add = Instruction(Mnemonic.ADD, (Reg.EAX, Imm(1)), address=0x10, length=3)
    assert repr(add) == (
        "Instruction(mnemonic=<Mnemonic.ADD: 'add'>, "
        "operands=(<Reg.EAX: 0>, Imm(value=1)), cond=None, address=16, length=3)"
    )
    same = Instruction(Mnemonic.ADD, (Reg.EAX, Imm(1)), address=0x10, length=3)
    same.is_branch = True
    assert same == add
    assert Instruction(Mnemonic.SUB, (Reg.EAX, Imm(1)), address=0x10, length=3) != add


def test_replace_recomputes_is_branch():
    add = Instruction(Mnemonic.ADD, (Reg.EAX, Imm(1)))
    jmp = replace(add, mnemonic=Mnemonic.JMP, operands=(Label("x"),))
    assert jmp.is_branch and not add.is_branch
    assert not replace(jmp, mnemonic=Mnemonic.NOP, operands=()).is_branch


def test_indirect_classification():
    ret = Instruction(Mnemonic.RET)
    call_reg = Instruction(Mnemonic.CALL, (Reg.EAX,))
    call_lbl = Instruction(Mnemonic.CALL, (Label("f"),))
    assert ret.is_indirect
    assert call_reg.is_indirect
    assert not call_lbl.is_indirect


def test_push_pop_reg_are_one_byte():
    assert estimate_length(Instruction(Mnemonic.PUSH, (Reg.EAX,))) == 1
    assert estimate_length(Instruction(Mnemonic.POP, (Reg.EBX,))) == 1


def test_length_grows_with_large_displacement():
    small = Instruction(Mnemonic.MOV, (Reg.EAX, Mem(base=Reg.ESI, disp=4)))
    large = Instruction(Mnemonic.MOV, (Reg.EAX, Mem(base=Reg.ESI, disp=0x1000)))
    assert estimate_length(large) > estimate_length(small)


def test_length_grows_with_large_immediate():
    small = Instruction(Mnemonic.ADD, (Reg.EAX, Imm(4)))
    large = Instruction(Mnemonic.ADD, (Reg.EAX, Imm(0x12345)))
    assert estimate_length(large) > estimate_length(small)


def test_sib_byte_counted():
    no_index = Instruction(Mnemonic.MOV, (Reg.EAX, Mem(base=Reg.ESI)))
    with_index = Instruction(
        Mnemonic.MOV, (Reg.EAX, Mem(base=Reg.ESI, index=Reg.EDI, scale=4))
    )
    assert estimate_length(with_index) > estimate_length(no_index)
