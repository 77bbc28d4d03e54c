"""Functional emulator: ALU semantics, flags, memory, control flow."""

import gc
import weakref

import pytest

from repro.x86 import Assembler, Cond, EmulationError, Emulator, Imm, Reg, mem
from repro.workloads import get_workload
from repro.x86.emulator import EXIT_ADDRESS


def run(asm_body, max_instructions=10_000):
    """Build+run a body function(asm) and return the emulator."""
    asm = Assembler()
    asm_body(asm)
    asm.ret()
    program = asm.assemble()
    emulator = Emulator(program)
    emulator.run(max_instructions)
    assert emulator.halted
    return emulator


def test_mov_and_add():
    emu = run(lambda a: (a.mov(Reg.EAX, Imm(40)), a.add(Reg.EAX, Imm(2))))
    assert emu.regs[Reg.EAX] == 42


def test_add_sets_carry_and_wraps():
    def body(a):
        a.mov(Reg.EAX, Imm(0xFFFFFFFF))
        a.add(Reg.EAX, Imm(1))
    emu = run(body)
    assert emu.regs[Reg.EAX] == 0
    assert emu.cf and emu.zf


def test_add_signed_overflow():
    def body(a):
        a.mov(Reg.EAX, Imm(0x7FFFFFFF))
        a.add(Reg.EAX, Imm(1))
    emu = run(body)
    assert emu.of and emu.sf and not emu.cf


def test_sub_borrow():
    def body(a):
        a.mov(Reg.EAX, Imm(1))
        a.sub(Reg.EAX, Imm(2))
    emu = run(body)
    assert emu.regs[Reg.EAX] == 0xFFFFFFFF
    assert emu.cf and emu.sf


def test_cmp_sets_flags_without_writing():
    def body(a):
        a.mov(Reg.EAX, Imm(5))
        a.cmp(Reg.EAX, Imm(5))
    emu = run(body)
    assert emu.regs[Reg.EAX] == 5
    assert emu.zf


def test_logic_ops_clear_cf_of():
    def body(a):
        a.mov(Reg.EAX, Imm(0xFFFFFFFF))
        a.add(Reg.EAX, Imm(1))  # sets CF
        a.mov(Reg.EBX, Imm(0xF0))
        a.and_(Reg.EBX, Imm(0x0F))
    emu = run(body)
    assert not emu.cf and not emu.of and emu.zf


def test_inc_preserves_carry():
    def body(a):
        a.mov(Reg.EAX, Imm(0xFFFFFFFF))
        a.add(Reg.EAX, Imm(1))  # CF=1
        a.inc(Reg.EBX)
    emu = run(body)
    assert emu.cf  # INC must not clear CF
    assert emu.regs[Reg.EBX] == 1


def test_neg_flags():
    def body(a):
        a.mov(Reg.EAX, Imm(5))
        a.neg(Reg.EAX)
    emu = run(body)
    assert emu.regs[Reg.EAX] == 0xFFFFFFFB
    assert emu.cf and emu.sf


def test_neg_of_zero_clears_cf():
    emu = run(lambda a: (a.xor(Reg.EAX, Reg.EAX), a.neg(Reg.EAX)))
    assert not emu.cf and emu.zf


def test_not_leaves_flags():
    def body(a):
        a.mov(Reg.EAX, Imm(0))
        a.add(Reg.EAX, Imm(0))  # ZF=1
        a.mov(Reg.EBX, Imm(0xFF))
        a.not_(Reg.EBX)
    emu = run(body)
    assert emu.zf  # NOT must not touch flags
    assert emu.regs[Reg.EBX] == 0xFFFFFF00


def test_imul_truncates_and_flags_overflow():
    def body(a):
        a.mov(Reg.EAX, Imm(0x10000))
        a.imul(Reg.EAX, Imm(0x10000))
    emu = run(body)
    assert emu.regs[Reg.EAX] == 0
    assert emu.cf and emu.of


def test_idiv_quotient_remainder():
    def body(a):
        a.mov(Reg.EAX, Imm(17))
        a.cdq()
        a.mov(Reg.EBX, Imm(5))
        a.idiv(Reg.EBX)
    emu = run(body)
    assert emu.regs[Reg.EAX] == 3
    assert emu.regs[Reg.EDX] == 2


def test_idiv_negative_truncates_toward_zero():
    def body(a):
        a.mov(Reg.EAX, Imm((-17) & 0xFFFFFFFF))
        a.cdq()
        a.mov(Reg.EBX, Imm(5))
        a.idiv(Reg.EBX)
    emu = run(body)
    assert emu.regs[Reg.EAX] == (-3) & 0xFFFFFFFF
    assert emu.regs[Reg.EDX] == (-2) & 0xFFFFFFFF


def test_idiv_by_zero_faults():
    asm = Assembler()
    asm.xor(Reg.EBX, Reg.EBX)
    asm.idiv(Reg.EBX)
    asm.ret()
    emulator = Emulator(asm.assemble())
    with pytest.raises(EmulationError, match="division by zero"):
        emulator.run()


def test_cdq_sign_extends():
    emu = run(lambda a: (a.mov(Reg.EAX, Imm(0x80000000)), a.cdq()))
    assert emu.regs[Reg.EDX] == 0xFFFFFFFF
    emu = run(lambda a: (a.mov(Reg.EAX, Imm(1)), a.cdq()))
    assert emu.regs[Reg.EDX] == 0


def test_shl_shr_sar():
    def body(a):
        a.mov(Reg.EAX, Imm(0x80000001))
        a.mov(Reg.EBX, Reg.EAX)
        a.mov(Reg.ECX, Reg.EAX)
        a.shl(Reg.EAX, Imm(1))
        a.shr(Reg.EBX, Imm(1))
        a.sar(Reg.ECX, Imm(1))
    emu = run(body)
    assert emu.regs[Reg.EAX] == 0x00000002
    assert emu.regs[Reg.EBX] == 0x40000000
    assert emu.regs[Reg.ECX] == 0xC0000000


def test_shift_by_zero_preserves_flags():
    def body(a):
        a.mov(Reg.EAX, Imm(0))
        a.add(Reg.EAX, Imm(0))  # ZF=1
        a.mov(Reg.EBX, Imm(7))
        a.xor(Reg.ECX, Reg.ECX)
        a.shl(Reg.EBX, Reg.ECX)  # count 0: no flag update
    emu = run(body)
    assert emu.zf


def test_shift_count_masked_to_5_bits():
    def body(a):
        a.mov(Reg.EAX, Imm(1))
        a.mov(Reg.ECX, Imm(33))  # & 0x1F == 1
        a.shl(Reg.EAX, Reg.ECX)
    emu = run(body)
    assert emu.regs[Reg.EAX] == 2


def test_push_pop_roundtrip():
    def body(a):
        a.mov(Reg.EAX, Imm(0x1234))
        a.push(Reg.EAX)
        a.pop(Reg.EBX)
    emu = run(body)
    assert emu.regs[Reg.EBX] == 0x1234


def test_push_decrements_esp_by_4():
    def body(a):
        a.mov(Reg.EBX, Reg.ESP)
        a.push(Reg.EAX)
        a.mov(Reg.EDX, Reg.ESP)
        a.pop(Reg.ECX)
    emu = run(body)
    assert (emu.regs[Reg.EBX] - emu.regs[Reg.EDX]) == 4


def test_memory_operand_with_index_scale():
    def body(a):
        a.data_words(0x600000, [10, 20, 30, 40])
        a.mov(Reg.ESI, Imm(0x600000))
        a.mov(Reg.EDI, Imm(3))
        a.mov(Reg.EAX, mem(Reg.ESI, index=Reg.EDI, scale=4))
    emu = run(body)
    assert emu.regs[Reg.EAX] == 40


def test_movzx_movsx():
    def body(a):
        a.data_words(0x600000, [0x000000FF])
        a.mov(Reg.ESI, Imm(0x600000))
        a.movzx(Reg.EAX, mem(Reg.ESI, size=1))
        a.movsx(Reg.EBX, mem(Reg.ESI, size=1))
    emu = run(body)
    assert emu.regs[Reg.EAX] == 0xFF
    assert emu.regs[Reg.EBX] == 0xFFFFFFFF


def test_lea_computes_without_access():
    def body(a):
        a.mov(Reg.ESI, Imm(0x100))
        a.mov(Reg.EDI, Imm(4))
        a.lea(Reg.EAX, mem(Reg.ESI, index=Reg.EDI, scale=8, disp=-8))
    emu = run(body)
    assert emu.regs[Reg.EAX] == 0x100 + 32 - 8
    # No memory transaction recorded for LEA.


def test_call_ret_nesting():
    asm = Assembler()
    asm.call("f")
    asm.add(Reg.EAX, Imm(100))
    asm.ret()
    asm.label("f")
    asm.call("g")
    asm.add(Reg.EAX, Imm(10))
    asm.ret()
    asm.label("g")
    asm.mov(Reg.EAX, Imm(1))
    asm.ret()
    emulator = Emulator(asm.assemble())
    emulator.run()
    assert emulator.regs[Reg.EAX] == 111


def test_conditional_branch_taken_and_not():
    def body(a):
        a.mov(Reg.ECX, Imm(3))
        a.xor(Reg.EAX, Reg.EAX)
        a.label("loop")
        a.inc(Reg.EAX)
        a.dec(Reg.ECX)
        a.jcc(Cond.NZ, "loop")
    emu = run(body)
    assert emu.regs[Reg.EAX] == 3


def test_indirect_jump_through_register():
    asm = Assembler()
    asm.mov(Reg.EAX, Imm(0))  # placeholder, patched post-assembly
    asm.jmp(Reg.EAX)
    asm.mov(Reg.EBX, Imm(99))  # skipped by the jump
    asm.label("target")
    asm.mov(Reg.EBX, Imm(7))
    asm.ret()
    program = asm.assemble()
    program.at(program.entry).operands = (
        Reg.EAX,
        Imm(program.labels["target"]),
    )
    emulator = Emulator(program)
    emulator.run()
    assert emulator.regs[Reg.EBX] == 7


def test_indirect_jump_through_memory_table():
    asm = Assembler()
    asm.mov(Reg.ESI, Imm(0x700000))
    asm.jmp(mem(Reg.ESI))
    asm.mov(Reg.EBX, Imm(99))
    asm.label("target")
    asm.mov(Reg.EBX, Imm(5))
    asm.ret()
    program = asm.assemble()
    program.data[0x700000] = program.labels["target"].to_bytes(4, "little")
    emulator = Emulator(program)
    emulator.run()
    assert emulator.regs[Reg.EBX] == 5


def test_trace_records_memory_transactions(loop_asm):
    program = loop_asm.assemble()
    emulator = Emulator(program)
    trace = emulator.run()
    loads = sum(len([m for m in r.mem_ops if m.is_load]) for r in trace)
    stores = sum(len([m for m in r.mem_ops if m.is_store]) for r in trace)
    assert loads > 0 and stores > 0


def test_trace_records_branch_outcomes(loop_asm):
    program = loop_asm.assemble()
    trace = Emulator(program).run()
    outcomes = [r.branch_taken for r in trace if r.is_conditional_branch]
    assert outcomes.count(True) == 31
    assert outcomes.count(False) == 1


def test_step_after_halt_raises():
    asm = Assembler()
    asm.ret()
    emulator = Emulator(asm.assemble())
    emulator.run()
    with pytest.raises(EmulationError):
        emulator.step()


def test_exit_address_reached_via_initial_return(loop_asm):
    program = loop_asm.assemble()
    emulator = Emulator(program)
    emulator.run()
    assert emulator.pc == EXIT_ADDRESS


def test_run_matches_manual_step_loop():
    workload = get_workload("vortex")
    program = workload.build(workload.default_scale, 1)
    ran = Emulator(program).run(400_000)
    stepper = Emulator(program)
    stepped = []
    while not stepper.halted:
        stepped.append(stepper.step())
    assert len(ran) == len(stepped) > 0
    assert ran == stepped
    for a, b in zip(ran, stepped):
        assert a.reg_writes == b.reg_writes
        assert type(a.flags_after) is type(b.flags_after)


def test_predecoded_facts_are_per_emulator():
    # Both programs put their first instruction at the same address; the
    # static facts derived for one must not leak into the other.
    def build(body):
        asm = Assembler()
        body(asm)
        asm.ret()
        return asm.assemble()

    mov_zero = build(lambda a: a.mov(Reg.EAX, Imm(0)))  # same value; no flags
    or_one = build(lambda a: a.or_(Reg.ECX, Imm(1)))  # flags written, unchanged
    assert mov_zero.entry == or_one.entry

    first = Emulator(mov_zero).step()
    second = Emulator(or_one).step()
    assert first.pc == second.pc
    assert first.reg_writes == ((int(Reg.EAX), 0),)
    assert first.flags_after is None
    assert second.reg_writes == ((int(Reg.ECX), 1),)
    assert second.flags_after == 0 and type(second.flags_after) is int


def test_emulator_is_freed_without_a_collection(loop_asm):
    """Handlers hold no reference back to their emulator, so an emulator
    and its memory go as soon as the last reference does, not at the next
    full garbage collection (the fuzz campaigns make one per program)."""
    emulator = Emulator(loop_asm.assemble())
    emulator.run()
    ref = weakref.ref(emulator)
    gc.disable()
    try:
        del emulator
        assert ref() is None
    finally:
        gc.enable()
