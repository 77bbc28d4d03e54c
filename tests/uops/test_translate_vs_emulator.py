"""Decode-flow validation: executed decode flows must match the emulator.

This is the State Verifier's first job (paper §5.1.3): executing every
instruction's uops through ``verify.frame_exec`` against the running
architectural state and comparing the resulting register writes, flags,
and stores with the trace.
"""

import random

import pytest

from helpers import assert_decode_flows_match, run_program
from repro.x86 import Assembler, Cond, Emulator, Imm, Reg, mem


def assert_trace_matches(asm: Assembler, max_instructions: int = 50_000):
    program, _, trace = run_program(asm, max_instructions)
    assert_decode_flows_match(program, trace)


def test_loop_program_matches(loop_asm):
    assert_trace_matches(loop_asm)


def test_alu_flag_torture():
    rng = random.Random(3)
    asm = Assembler()
    values = [rng.getrandbits(32) for _ in range(8)]
    for i, value in enumerate(values):
        asm.mov(Reg(i % 4), Imm(value))
        asm.add(Reg.EAX, Reg(i % 4))
        asm.sub(Reg.EBX, Imm(value & 0xFFFF))
        asm.xor(Reg.ECX, Reg.EAX)
        asm.imul(Reg.EDX, Imm((value % 7) + 1))
        asm.inc(Reg.EAX)
        asm.dec(Reg.EBX)
        asm.neg(Reg.ECX)
        asm.shl(Reg.EAX, Imm(value % 31 + 1))
        asm.sar(Reg.EBX, Imm(3))
        asm.cmp(Reg.EAX, Reg.EBX)
        asm.test(Reg.ECX, Imm(0xFF))
    asm.ret()
    assert_trace_matches(asm)


def test_movzx_movsx_zero_extension_with_dirty_registers():
    """MOVZX/MOVSX must replace *all* destination bits.

    Every destination register starts as all-ones so an implementation
    that merely copies the masked load (a plain-MOV MOVZX) still passes,
    but one that forgets the source width and writes 32 loaded bits, or
    merges into the old register value, fails.  Source bytes have their
    high bits set: 0x80/0xFF (byte) and 0x8000/0xFFFF (word).
    """
    asm = Assembler()
    asm.data_words(0x600000, [0x0000FF80, 0x8000FFFF, 0xFFFFFFFF])
    asm.mov(Reg.ESI, Imm(0x600000))
    for reg in (Reg.EAX, Reg.EBX, Reg.ECX, Reg.EDX):
        asm.mov(reg, Imm(0xFFFFFFFF))
    asm.movzx(Reg.EAX, mem(Reg.ESI, size=1))  # 0x80 -> 0x00000080
    asm.movsx(Reg.EBX, mem(Reg.ESI, size=1))  # 0x80 -> 0xFFFFFF80
    asm.movzx(Reg.ECX, mem(Reg.ESI, disp=1, size=1))  # 0xFF -> 0x000000FF
    asm.movsx(Reg.EDX, mem(Reg.ESI, disp=1, size=1))  # 0xFF -> 0xFFFFFFFF
    asm.mov(mem(Reg.ESI, disp=12, size=4), Reg.EAX)
    asm.mov(mem(Reg.ESI, disp=16, size=4), Reg.EBX)
    for reg in (Reg.EAX, Reg.EBX, Reg.ECX, Reg.EDX):
        asm.mov(reg, Imm(0xFFFFFFFF))
    asm.movzx(Reg.EAX, mem(Reg.ESI, disp=4, size=2))  # 0xFFFF -> 0x0000FFFF
    asm.movsx(Reg.EBX, mem(Reg.ESI, disp=4, size=2))  # 0xFFFF -> 0xFFFFFFFF
    asm.movzx(Reg.ECX, mem(Reg.ESI, disp=6, size=2))  # 0x8000 -> 0x00008000
    asm.movsx(Reg.EDX, mem(Reg.ESI, disp=6, size=2))  # 0x8000 -> 0xFFFF8000
    asm.mov(mem(Reg.ESI, disp=20, size=4), Reg.ECX)
    asm.mov(mem(Reg.ESI, disp=24, size=4), Reg.EDX)
    asm.ret()
    assert_trace_matches(asm)


def test_movzx_values_against_emulator_registers():
    """Spot-check the architectural values directly, not just agreement."""
    asm = Assembler()
    asm.data_words(0x600000, [0x0000FF80, 0x8000FFFF])
    asm.mov(Reg.ESI, Imm(0x600000))
    asm.mov(Reg.EAX, Imm(0xFFFFFFFF))
    asm.mov(Reg.EBX, Imm(0xFFFFFFFF))
    asm.movzx(Reg.EAX, mem(Reg.ESI, size=1))
    asm.movsx(Reg.EBX, mem(Reg.ESI, disp=6, size=2))
    asm.ret()
    program = asm.assemble()
    emulator = Emulator(program)
    emulator.run()
    assert emulator.regs[Reg.EAX] == 0x00000080
    assert emulator.regs[Reg.EBX] == 0xFFFF8000


def test_movzx_register_source_rejected():
    """Non-memory MOVZX/MOVSX sources fail loudly in both layers."""
    from repro.uops.translate import Translator, TranslationError
    from repro.x86 import EmulationError
    from repro.x86.instructions import Instruction, Mnemonic

    instr = Instruction(Mnemonic.MOVZX, (Reg.EAX, Reg.EBX))
    with pytest.raises(TranslationError):
        Translator().translate(instr)

    asm = Assembler()
    asm.emit(Mnemonic.MOVZX, Reg.EAX, Reg.EBX)
    asm.ret()
    with pytest.raises(EmulationError):
        Emulator(asm.assemble()).run()


def test_memory_widths_and_sign_extension():
    asm = Assembler()
    asm.data_words(0x600000, [0xDEADBEEF, 0x0000FF80])
    asm.mov(Reg.ESI, Imm(0x600000))
    asm.movzx(Reg.EAX, mem(Reg.ESI, size=1))
    asm.movsx(Reg.EBX, mem(Reg.ESI, size=1))
    asm.movzx(Reg.ECX, mem(Reg.ESI, disp=4, size=2))
    asm.movsx(Reg.EDX, mem(Reg.ESI, disp=4, size=2))
    asm.mov(mem(Reg.ESI, disp=8, size=2), Reg.EAX)
    asm.mov(mem(Reg.ESI, disp=10, size=1), Reg.EBX)
    asm.ret()
    assert_trace_matches(asm)


def test_division_sequences():
    asm = Assembler()
    for dividend, divisor in ((100, 7), (-100 & 0xFFFFFFFF, 7), (5, 100)):
        asm.mov(Reg.EAX, Imm(dividend))
        asm.cdq()
        asm.mov(Reg.EBX, Imm(divisor))
        asm.idiv(Reg.EBX)
    asm.ret()
    assert_trace_matches(asm)


def test_stack_heavy_calls():
    asm = Assembler()
    asm.mov(Reg.ECX, Imm(10))
    asm.label("loop")
    asm.push(Reg.ECX)
    asm.push(Imm(5))
    asm.call("f")
    asm.add(Reg.ESP, Imm(4))
    asm.pop(Reg.ECX)
    asm.dec(Reg.ECX)
    asm.jcc(Cond.NZ, "loop")
    asm.ret()
    asm.label("f")
    asm.push(Reg.EBP)
    asm.mov(Reg.EBP, Reg.ESP)
    asm.mov(Reg.EAX, mem(Reg.EBP, disp=8))
    asm.add(Reg.EAX, Imm(1))
    asm.pop(Reg.EBP)
    asm.ret()
    assert_trace_matches(asm)


@pytest.mark.parametrize(
    "name",
    # bzip2/eon/excel/parser plus the workloads whose first 6,000
    # instructions reach forms those four never execute.
    ["bzip2", "eon", "excel", "parser",
     "crafty", "twolf", "access", "dream", "lotus", "photo"],
)
def test_workload_decode_flows_match(name):
    """Spot-check full workloads through the decode-flow validator."""
    from repro.workloads import get_workload

    program = get_workload(name).build(1, seed=1)
    assert_decode_flows_match(program, Emulator(program).run(6000))
