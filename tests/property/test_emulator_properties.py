"""Property tests: emulator vs executed decode flows on random ALU code.

Generates random straight-line arithmetic programs and checks that the
decode flows, executed through ``verify.frame_exec``, reproduce the
emulator's architectural effects exactly — the decode-flow half of the
State Verifier, explored randomly.
"""

from hypothesis import given, settings, strategies as st

from helpers import assert_decode_flows_match
from repro.x86 import Assembler, Emulator, Imm, Reg, mem

_regs = st.sampled_from(list(Reg))
_values = st.integers(min_value=0, max_value=0xFFFFFFFF)


@st.composite
def alu_instruction(draw):
    kind = draw(
        st.sampled_from(
            ["mov_imm", "add", "sub", "and", "or", "xor", "imul", "inc",
             "dec", "neg", "not", "shl", "shr", "sar", "cmp", "test", "lea"]
        )
    )
    dst = draw(_regs)
    if dst is Reg.ESP:  # keep the stack pointer sane
        dst = Reg.EAX
    src = draw(_regs)
    imm = Imm(draw(st.integers(min_value=-1000, max_value=1000)))
    return kind, dst, src, imm


@given(st.lists(alu_instruction(), min_size=1, max_size=30),
       st.lists(_values, min_size=8, max_size=8))
@settings(max_examples=80, deadline=None)
def test_random_alu_programs_agree(instructions, seeds):
    asm = Assembler()
    for i, seed in enumerate(seeds):
        if Reg(i) is not Reg.ESP:
            asm.mov(Reg(i), Imm(seed))
    for kind, dst, src, imm in instructions:
        if kind == "mov_imm":
            asm.mov(dst, imm)
        elif kind == "add":
            asm.add(dst, src)
        elif kind == "sub":
            asm.sub(dst, src)
        elif kind == "and":
            asm.and_(dst, src)
        elif kind == "or":
            asm.or_(dst, src)
        elif kind == "xor":
            asm.xor(dst, src)
        elif kind == "imul":
            asm.imul(dst, src)
        elif kind == "inc":
            asm.inc(dst)
        elif kind == "dec":
            asm.dec(dst)
        elif kind == "neg":
            asm.neg(dst)
        elif kind == "not":
            asm.not_(dst)
        elif kind == "shl":
            asm.shl(dst, Imm(abs(imm.value) % 32))
        elif kind == "shr":
            asm.shr(dst, Imm(abs(imm.value) % 32))
        elif kind == "sar":
            asm.sar(dst, Imm(abs(imm.value) % 32))
        elif kind == "cmp":
            asm.cmp(dst, src)
        elif kind == "test":
            asm.test(dst, src)
        elif kind == "lea":
            base = src if src is not Reg.ESP else Reg.EAX
            asm.lea(dst, mem(base, disp=imm.value))
    asm.ret()

    program = asm.assemble()
    assert_decode_flows_match(program, Emulator(program).run(10_000))
