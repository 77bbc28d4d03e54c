"""Frame execution engine details."""

import pytest

from helpers import buffer_from_uops
from repro.uops import Uop, UopOp, UReg
from repro.verify.frame_exec import FrameExecutionError, execute_frame
from repro.x86.instructions import Cond
from repro.x86.registers import pack_flags

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


def recording_reader(memory, reads):
    """A ``read_memory`` over ``memory`` that logs each byte address read."""

    def read(address):
        reads.append(address)
        return memory.get(address)

    return read


def test_live_out_defaults_to_live_in():
    _, outcome = run([Uop(UopOp.NOP)], live_in=regs(EDI=7))
    assert outcome.final_regs[UReg.EDI] == 7


def test_stores_accumulate_in_order():
    uops = [
        Uop(UopOp.LIMM, dst=UReg.ET0, imm=0xAA),
        Uop(UopOp.STORE, src_a=UReg.ESI, imm=0, src_data=UReg.ET0),
        Uop(UopOp.LIMM, dst=UReg.ET1, imm=0xBB),
        Uop(UopOp.STORE, src_a=UReg.ESI, imm=0, src_data=UReg.ET1),
    ]
    _, outcome = run(uops, live_in=regs(ESI=0x100))
    # Both stores execute (frames never drop stores); last value wins.
    assert len(outcome.stores) == 2
    assert outcome.stores[-1] == (0x100, 4, 0xBB)


def test_load_sees_earlier_frame_store():
    uops = [
        Uop(UopOp.LIMM, dst=UReg.ET0, imm=0x42),
        Uop(UopOp.STORE, src_a=UReg.ESI, imm=4, src_data=UReg.ET0),
        Uop(UopOp.LOAD, dst=UReg.EAX, src_a=UReg.ESI, imm=4),
    ]
    reads = []
    outcome = execute_frame(
        buffer_from_uops(uops), regs(ESI=0x200), ZERO_FLAGS, recording_reader({}, reads)
    )
    assert outcome.final_regs[UReg.EAX] == 0x42
    # Every loaded byte came from the store at 0x204, none from memory.
    assert outcome.stores == [(0x204, 4, 0x42)] and reads == []


def test_addresses_computed_from_values_not_annotations():
    load = Uop(UopOp.LOAD, dst=UReg.EAX, src_a=UReg.ESI, imm=8)
    memory = {0x308 + i: 0x10 + i for i in range(4)}
    reads = []
    outcome = execute_frame(
        buffer_from_uops([load]), regs(ESI=0x300), ZERO_FLAGS, recording_reader(memory, reads)
    )
    assert reads == [0x308, 0x309, 0x30A, 0x30B]
    assert outcome.final_regs[UReg.EAX] == 0x13121110


def test_firing_assertion_stops_execution():
    uops = [
        Uop(UopOp.SUB, dst=None, src_a=UReg.EAX, imm=1, writes_flags=True),
        Uop(UopOp.ASSERT, cond=Cond.Z),  # fires: EAX=0 so 0-1 != 0
        Uop(UopOp.LIMM, dst=UReg.EBX, imm=9),
    ]
    buffer, outcome = run(uops)
    assert outcome.fired and outcome.firing_slot == 1
    assert outcome.final_regs[UReg.EBX] == 0  # slot 2 never ran... rollback


def test_flags_live_out_from_last_writer():
    uops = [
        Uop(UopOp.SUB, dst=None, src_a=UReg.EAX, imm=0, writes_flags=True),
    ]
    _, outcome = run(uops)  # 0 - 0 = 0 -> ZF
    from repro.x86.registers import Flag

    assert outcome.final_flags & (1 << Flag.ZF)


def test_flags_pass_through_when_unwritten():
    _, outcome = run([Uop(UopOp.NOP)], flags=(True, False, True, False))
    from repro.x86.registers import Flag

    assert outcome.final_flags & (1 << Flag.CF)
    assert outcome.final_flags & (1 << Flag.SF)


def test_missing_memory_is_an_error():
    load = Uop(UopOp.LOAD, dst=UReg.EAX, src_a=UReg.ESI, imm=0)
    buffer = buffer_from_uops([load])
    with pytest.raises(FrameExecutionError, match="initial memory map"):
        execute_frame(buffer, regs(), ZERO_FLAGS, lambda a: None)


def test_division_by_zero_is_an_error():
    div = Uop(UopOp.DIVQ, dst=UReg.EAX, src_a=UReg.EAX, src_b=UReg.EBX)
    buffer = buffer_from_uops([div])
    with pytest.raises(FrameExecutionError, match="division"):
        execute_frame(buffer, regs(), ZERO_FLAGS, lambda a: 0)


def case(id, uops, live_in=None, flags=ZERO_FLAGS, memory=None, out=None,
         out_flags=None, fired=False, error=None):
    """One semantics row: a frame, its entry state, and what it must yield."""
    return pytest.param(
        uops, live_in or {}, flags, memory or {}, out or {}, out_flags, fired,
        error, id=id,
    )


SEMANTICS = [
    case(
        "limm_and_mov",
        [Uop(UopOp.LIMM, dst=UReg.EAX, imm=42),
         Uop(UopOp.MOV, dst=UReg.EBX, src_a=UReg.EAX)],
        out={"EAX": 42, "EBX": 42},
    ),
    case(
        "add_carry_and_zf",
        [Uop(UopOp.ADD, dst=UReg.EAX, src_a=UReg.EAX, imm=1, writes_flags=True)],
        live_in={"EAX": 0xFFFFFFFF},
        out={"EAX": 0},
        out_flags=(True, True, False, False),
    ),
    case(
        "preserves_cf",  # INC: CF survives a carry-free add
        [Uop(UopOp.ADD, dst=UReg.EAX, src_a=UReg.EAX, imm=1, writes_flags=True,
             preserves_cf=True)],
        live_in={"EAX": 1},
        flags=(True, False, False, False),
        out={"EAX": 2},
        out_flags=(True, False, False, False),
    ),
    case(
        "load_sign_extension",
        [Uop(UopOp.LOAD, dst=UReg.EAX, src_a=UReg.ESI, size=1, sign_extend=True)],
        live_in={"ESI": 0x100},
        memory={0x100: 0xFF},
        out={"EAX": 0xFFFFFFFF},
    ),
    case(
        "scale_plus_displacement",
        [Uop(UopOp.LOAD, dst=UReg.EAX, src_a=UReg.ESI, src_b=UReg.EDI, scale=4,
             imm=4, size=1)],
        live_in={"ESI": 0x100, "EDI": 3},
        memory={0x100 + 12 + 4: 0x77},
        out={"EAX": 0x77},
    ),
    case(
        "load_store_roundtrip",
        [Uop(UopOp.STORE, src_a=UReg.ESI, imm=8, src_data=UReg.EAX),
         Uop(UopOp.LOAD, dst=UReg.EBX, src_a=UReg.ESI, imm=8)],
        live_in={"ESI": 0x1000, "EAX": 0xBEEF},
        out={"EBX": 0xBEEF},
    ),
    case(
        "load_reads_entry_memory",  # bytes no frame store wrote
        [Uop(UopOp.LOAD, dst=UReg.EAX, imm=0x500)],
        memory={0x500 + i: 0x11 for i in range(4)},
        out={"EAX": 0x11111111},
    ),
    case(
        "divq_divr",
        [Uop(UopOp.DIVQ, dst=UReg.ECX, src_a=UReg.EAX, src_b=UReg.EBX,
             src_data=UReg.EDX),
         Uop(UopOp.DIVR, dst=UReg.ESI, src_a=UReg.EAX, src_b=UReg.EBX,
             src_data=UReg.EDX)],
        live_in={"EAX": 17, "EDX": 0, "EBX": 5},
        out={"ECX": 3, "ESI": 2},
    ),
    case(
        # A dividend wider than a double's mantissa: exact division.
        "divq_divr_wide_dividend",
        [Uop(UopOp.DIVQ, dst=UReg.ECX, src_a=UReg.EAX, src_b=UReg.EBX,
             src_data=UReg.EDX),
         Uop(UopOp.DIVR, dst=UReg.ESI, src_a=UReg.EAX, src_b=UReg.EBX,
             src_data=UReg.EDX)],
        live_in={"EAX": 0x9299168D, "EDX": 0x1FDAB34E, "EBX": 0x5132D8FA},
        out={"ECX": 1684919826, "ESI": 0x5132D8F9},
    ),
    case(
        "divq_overflow",  # -2^31 / -1
        [Uop(UopOp.DIVQ, dst=UReg.ECX, src_a=UReg.EAX, src_b=UReg.EBX,
             src_data=UReg.EDX)],
        live_in={"EAX": 0x80000000, "EDX": 0xFFFFFFFF, "EBX": 0xFFFFFFFF},
        error="quotient overflow",
    ),
    case(
        "divr_overflow",  # (2^63 - 1) / 3
        [Uop(UopOp.DIVR, dst=UReg.ESI, src_a=UReg.EAX, src_b=UReg.EBX,
             src_data=UReg.EDX)],
        live_in={"EAX": 0xFFFFFFFF, "EDX": 0x7FFFFFFF, "EBX": 3},
        error="quotient overflow",
    ),
    case(
        "divq_by_zero",
        [Uop(UopOp.DIVQ, dst=UReg.ECX, src_a=UReg.EAX, src_b=UReg.EBX,
             src_data=UReg.EDX)],
        live_in={"EAX": 17, "EDX": 0, "EBX": 0},
        error="division",
    ),
    case(
        "shift_by_zero_keeps_flags",
        [Uop(UopOp.SHL, dst=UReg.EAX, src_a=UReg.EAX, src_b=UReg.ECX,
             writes_flags=True)],
        live_in={"EAX": 4, "ECX": 0},
        flags=(False, True, False, False),
        out={"EAX": 4},
        out_flags=(False, True, False, False),
    ),
    case(
        "mul",  # in order: (2 + 2) * 3
        [Uop(UopOp.LIMM, dst=UReg.EAX, imm=2),
         Uop(UopOp.ADD, dst=UReg.EAX, src_a=UReg.EAX, src_b=UReg.EAX),
         Uop(UopOp.MUL, dst=UReg.EAX, src_a=UReg.EAX, imm=3)],
        out={"EAX": 12},
    ),
    case(
        "assert_holds",
        [Uop(UopOp.ASSERT, cond=Cond.Z)],
        flags=(False, True, False, False),
    ),
    case(
        "assert_fires",
        [Uop(UopOp.ASSERT, cond=Cond.Z)],
        fired=True,
    ),
    case(
        "assert_cmp_holds",
        [Uop(UopOp.ASSERT_CMP, cond=Cond.Z, cmp_kind=UopOp.SUB, src_a=UReg.EAX,
             imm=5)],
        live_in={"EAX": 5},
    ),
    case(
        "assert_cmp_fires",
        [Uop(UopOp.ASSERT_CMP, cond=Cond.Z, cmp_kind=UopOp.SUB, src_a=UReg.EAX,
             imm=6)],
        live_in={"EAX": 5},
        fired=True,
    ),
]


@pytest.mark.parametrize(
    "uops,live_in,flags,memory,out,out_flags,fired,error", SEMANTICS
)
def test_uop_semantics(uops, live_in, flags, memory, out, out_flags, fired,
                       error):
    if error is not None:
        with pytest.raises(FrameExecutionError, match=error):
            run(uops, live_in=regs(**live_in), flags=flags, memory=memory)
        return
    _, outcome = run(uops, live_in=regs(**live_in), flags=flags, memory=memory)
    assert outcome.fired == fired
    for name, value in out.items():
        assert outcome.final_regs[UReg[name]] == value, name
    if out_flags is not None:
        assert outcome.final_flags == pack_flags(*out_flags)
