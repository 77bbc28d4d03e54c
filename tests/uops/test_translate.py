"""x86 -> uop decode flows."""

from repro.x86 import Assembler, Cond, Imm, Reg, mem
from repro.uops import Translator, UopOp, UReg


def decode(build):
    """Assemble one instruction via ``build(asm)`` and decode it."""
    asm = Assembler()
    build(asm)
    program = asm.assemble()
    instr = program.at(program.entry)
    return Translator().translate(instr)


def test_mov_reg_reg_single_uop():
    (uop,) = decode(lambda a: a.mov(Reg.EAX, Reg.EBX))
    assert uop.op is UopOp.MOV and uop.dst is UReg.EAX and uop.src_a is UReg.EBX


def test_mov_imm_is_limm():
    (uop,) = decode(lambda a: a.mov(Reg.EAX, Imm(5)))
    assert uop.op is UopOp.LIMM and uop.imm == 5


def test_mov_load_carries_address_expression():
    (uop,) = decode(lambda a: a.mov(Reg.EAX, mem(Reg.ESI, index=Reg.EDI, scale=4, disp=8)))
    assert uop.op is UopOp.LOAD
    assert (uop.src_a, uop.src_b, uop.scale, uop.imm) == (UReg.ESI, UReg.EDI, 4, 8)


def test_mov_store_to_memory():
    (uop,) = decode(lambda a: a.mov(mem(Reg.ESI, disp=4), Reg.EAX))
    assert uop.op is UopOp.STORE and uop.src_data is UReg.EAX


def test_mov_imm_to_memory_uses_temp():
    uops = decode(lambda a: a.mov(mem(Reg.ESI), Imm(7)))
    assert [u.op for u in uops] == [UopOp.LIMM, UopOp.STORE]
    assert uops[1].src_data is uops[0].dst


def test_alu_reg_reg_writes_flags():
    (uop,) = decode(lambda a: a.add(Reg.EAX, Reg.EBX))
    assert uop.op is UopOp.ADD and uop.writes_flags


def test_alu_mem_source_two_uops():
    uops = decode(lambda a: a.add(Reg.EAX, mem(Reg.ESI)))
    assert [u.op for u in uops] == [UopOp.LOAD, UopOp.ADD]


def test_alu_mem_destination_three_uops():
    uops = decode(lambda a: a.add(mem(Reg.ESI), Reg.EAX))
    assert [u.op for u in uops] == [UopOp.LOAD, UopOp.ADD, UopOp.STORE]


def test_cmp_has_no_destination():
    (uop,) = decode(lambda a: a.cmp(Reg.EAX, Imm(3)))
    assert uop.op is UopOp.SUB and uop.dst is None and uop.writes_flags


def test_test_is_flag_only_and():
    (uop,) = decode(lambda a: a.test(Reg.EAX, Reg.EAX))
    assert uop.op is UopOp.AND and uop.dst is None


def test_inc_preserves_cf():
    (uop,) = decode(lambda a: a.inc(Reg.EAX))
    assert uop.op is UopOp.ADD and uop.imm == 1 and uop.preserves_cf


def test_push_is_store_then_esp_update():
    uops = decode(lambda a: a.push(Reg.EBP))
    assert [u.op for u in uops] == [UopOp.STORE, UopOp.SUB]
    store, sub = uops
    assert store.src_a is UReg.ESP and store.imm == -4
    assert sub.dst is UReg.ESP and not sub.writes_flags  # PUSH sets no flags


def test_pop_is_load_then_esp_update():
    uops = decode(lambda a: a.pop(Reg.EBX))
    assert [u.op for u in uops] == [UopOp.LOAD, UopOp.ADD]
    assert uops[0].dst is UReg.EBX
    assert not uops[1].writes_flags


def test_call_direct_flow():
    def body(a):
        a.call("f")
        a.label("f")
        a.ret()
    uops = decode(body)
    assert [u.op for u in uops] == [UopOp.LIMM, UopOp.STORE, UopOp.SUB, UopOp.JMP]
    # The return address is the instruction after the CALL.
    assert uops[0].imm == uops[3].target  # label f follows the call


def test_ret_flow_matches_paper_figure2():
    def body(a):
        a.ret()
    uops = decode(body)
    assert [u.op for u in uops] == [UopOp.LOAD, UopOp.ADD, UopOp.JMPI]
    assert uops[0].dst is UReg.ET2 and uops[2].src_a is UReg.ET2


def test_jcc_single_branch_uop():
    def body(a):
        a.label("top")
        a.jcc(Cond.NZ, "top")
    uops = decode(body)
    assert [u.op for u in uops] == [UopOp.BR]
    assert uops[0].cond is Cond.NZ


def test_idiv_pins_eax_edx():
    (divq, divr, move) = decode(lambda a: a.idiv(Reg.EBX))
    assert divq.op is UopOp.DIVQ and divq.src_a is UReg.EAX
    assert divq.src_data is UReg.EDX
    assert divr.op is UopOp.DIVR and divr.dst is UReg.EDX
    assert move.op is UopOp.MOV and move.dst is UReg.EAX


def test_cdq_is_flagless_sar():
    (uop,) = decode(lambda a: a.cdq())
    assert uop.op is UopOp.SAR and uop.imm == 31 and not uop.writes_flags


def test_lea_no_memory_uop():
    (uop,) = decode(lambda a: a.lea(Reg.EAX, mem(Reg.ESI, disp=16)))
    assert uop.op is UopOp.LEA and not uop.is_mem


def test_movsx_sets_sign_extend():
    (uop,) = decode(lambda a: a.movsx(Reg.EAX, mem(Reg.ESI, size=1)))
    assert uop.op is UopOp.LOAD and uop.sign_extend and uop.size == 1


def test_translation_cached_by_address():
    asm = Assembler()
    asm.add(Reg.EAX, Imm(1))
    program = asm.assemble()
    translator = Translator()
    instr = program.at(program.entry)
    assert translator.translate(instr) is translator.translate(instr)


def test_uop_ratio_on_realistic_mix(loop_asm):
    from helpers import run_program
    from repro.trace import MicroOpInjector

    _, _, trace = run_program(loop_asm)
    injected = MicroOpInjector().inject_trace(trace)
    # The paper reports ~1.4 uops per x86 instruction; call-heavy code
    # runs higher, plain ALU code lower.
    assert 1.0 <= injected.uops_per_x86 <= 2.2
