"""Surgical unit tests for the individual optimization passes."""

from helpers import buffer_from_uops
from repro.optimizer import DefRef, LiveIn, OptContext
from repro.optimizer.passes import (
    CommonSubexpression,
    ConstantPropagation,
    DeadCodeElimination,
    NopRemoval,
    Reassociation,
    StoreForwarding,
    ValueAssertion,
)
from repro.uops import Uop, UopOp, UReg
from repro.x86.instructions import Cond


def ctx(**kwargs) -> OptContext:
    return OptContext(**kwargs)


# ------------------------------------------------------------ NOP removal


def test_nop_removes_nops_and_jmps():
    buf = buffer_from_uops(
        [
            Uop(UopOp.NOP),
            Uop(UopOp.JMP, target=0x100),
            Uop(UopOp.ADD, dst=UReg.EAX, src_a=UReg.EAX, imm=1),
        ]
    )
    changes = NopRemoval()(buf, ctx())
    assert changes == 2
    assert buf.valid_count() == 1


def test_nop_keeps_conditional_and_indirect():
    buf = buffer_from_uops(
        [
            Uop(UopOp.BR, cond=Cond.Z, target=0x10),
            Uop(UopOp.JMPI, src_a=UReg.EAX),
        ]
    )
    assert NopRemoval()(buf, ctx()) == 0


# --------------------------------------------------- constant propagation


def test_cp_folds_limm_into_alu_imm():
    buf = buffer_from_uops(
        [
            Uop(UopOp.LIMM, dst=UReg.EBX, imm=5),
            Uop(UopOp.ADD, dst=UReg.EAX, src_a=UReg.EAX, src_b=UReg.EBX,
                writes_flags=True),
        ]
    )
    ConstantPropagation()(buf, ctx())
    add = buf.uops[1]
    assert add.src_b is None and add.imm == 5


def test_cp_commutative_swap_for_constant_left():
    buf = buffer_from_uops(
        [
            Uop(UopOp.LIMM, dst=UReg.EBX, imm=5),
            Uop(UopOp.ADD, dst=UReg.EAX, src_a=UReg.EBX, src_b=UReg.ECX),
        ]
    )
    ConstantPropagation()(buf, ctx())
    add = buf.uops[1]
    assert add.src_a == LiveIn(UReg.ECX) and add.imm == 5


def test_cp_folds_constants_into_address():
    buf = buffer_from_uops(
        [
            Uop(UopOp.LIMM, dst=UReg.ESI, imm=0x1000),
            Uop(UopOp.LOAD, dst=UReg.EAX, src_a=UReg.ESI, imm=8),
        ]
    )
    ConstantPropagation()(buf, ctx())
    load = buf.uops[1]
    assert load.src_a is None and load.imm == 0x1008


def test_cp_evaluates_constant_chains():
    buf = buffer_from_uops(
        [
            Uop(UopOp.LIMM, dst=UReg.EAX, imm=6),
            Uop(UopOp.ADD, dst=UReg.EBX, src_a=UReg.EAX, imm=4),
            Uop(UopOp.MOV, dst=UReg.ECX, src_a=UReg.EBX),
        ]
    )
    ConstantPropagation()(buf, ctx())
    assert buf.uops[1].op is UopOp.LIMM and buf.uops[1].imm == 10
    assert buf.uops[2].op is UopOp.LIMM and buf.uops[2].imm == 10


def test_cp_keeps_flag_writer_with_live_flags():
    buf = buffer_from_uops(
        [
            Uop(UopOp.LIMM, dst=UReg.EAX, imm=6),
            Uop(UopOp.ADD, dst=UReg.EBX, src_a=UReg.EAX, imm=4,
                writes_flags=True),
            Uop(UopOp.ASSERT, cond=Cond.NZ),
        ]
    )
    ConstantPropagation()(buf, ctx())
    # Flags are consumed by the assertion: the ADD cannot become LIMM.
    assert buf.uops[1].op is UopOp.ADD


def test_cp_zeroing_idiom():
    buf = buffer_from_uops(
        [
            Uop(UopOp.XOR, dst=UReg.EAX, src_a=UReg.EAX, src_b=UReg.EAX,
                writes_flags=True),
            Uop(UopOp.ADD, dst=UReg.EBX, src_a=UReg.EBX, src_b=UReg.EAX,
                writes_flags=True),
        ]
    )
    ConstantPropagation()(buf, ctx())
    add = buf.uops[1]
    assert add.src_b is None and add.imm == 0


def test_cp_identity_add_becomes_mov():
    buf = buffer_from_uops(
        [
            Uop(UopOp.ADD, dst=UReg.EAX, src_a=UReg.EBX, imm=0),
        ]
    )
    ConstantPropagation()(buf, ctx())
    assert buf.uops[0].op is UopOp.MOV


def test_cp_jmpi_with_constant_target_becomes_jmp():
    buf = buffer_from_uops(
        [
            Uop(UopOp.LIMM, dst=UReg.ET2, imm=0x4010),
            Uop(UopOp.JMPI, src_a=UReg.ET2),
        ]
    )
    ConstantPropagation()(buf, ctx())
    assert buf.uops[1].op is UopOp.JMP and buf.uops[1].target == 0x4010


def test_cp_discharges_true_value_assertion():
    buf = buffer_from_uops(
        [
            Uop(UopOp.LIMM, dst=UReg.ET2, imm=0x4010),
            Uop(UopOp.ASSERT_CMP, cond=Cond.Z, cmp_kind=UopOp.SUB,
                src_a=UReg.ET2, imm=0x4010),
        ]
    )
    ConstantPropagation()(buf, ctx())
    assert not buf.uops[1].valid


def test_cp_keeps_false_value_assertion():
    buf = buffer_from_uops(
        [
            Uop(UopOp.LIMM, dst=UReg.ET2, imm=0x4010),
            Uop(UopOp.ASSERT_CMP, cond=Cond.Z, cmp_kind=UopOp.SUB,
                src_a=UReg.ET2, imm=0x9999),
        ]
    )
    ConstantPropagation()(buf, ctx())
    assert buf.uops[1].valid


# --------------------------------------------------------- reassociation


def test_ra_copy_propagation():
    buf = buffer_from_uops(
        [
            Uop(UopOp.MOV, dst=UReg.EDX, src_a=UReg.ECX),
            Uop(UopOp.OR, dst=UReg.EDX, src_a=UReg.EDX, src_b=UReg.EBX,
                writes_flags=True),
        ]
    )
    Reassociation()(buf, ctx())
    assert buf.uops[1].src_a == LiveIn(UReg.ECX)


def test_ra_flattens_stack_pointer_chain():
    # Two PUSH-style updates: the second store re-points at live-in ESP.
    buf = buffer_from_uops(
        [
            Uop(UopOp.SUB, dst=UReg.ESP, src_a=UReg.ESP, imm=4),
            Uop(UopOp.STORE, src_a=UReg.ESP, imm=-4, src_data=UReg.EBX),
            Uop(UopOp.SUB, dst=UReg.ESP, src_a=UReg.ESP, imm=4),
        ]
    )
    Reassociation()(buf, ctx())
    store = buf.uops[1]
    assert store.src_a == LiveIn(UReg.ESP) and store.imm == -8
    # The second SUB folds through the first: ESP.in + (-8).
    assert buf.uops[2].src_a == LiveIn(UReg.ESP)
    assert buf.uops[2].op is UopOp.ADD and buf.uops[2].imm == -8


def test_ra_folds_into_flag_dead_alu_only():
    buf = buffer_from_uops(
        [
            Uop(UopOp.ADD, dst=UReg.EAX, src_a=UReg.EBX, imm=4),
            Uop(UopOp.ADD, dst=UReg.ECX, src_a=UReg.EAX, imm=2,
                writes_flags=True),
            Uop(UopOp.ASSERT, cond=Cond.NZ),  # consumes slot 1's flags
        ]
    )
    Reassociation()(buf, ctx())
    # Folding would change slot 1's CF/OF, and its flags are live.
    assert buf.uops[1].src_a == DefRef(0)


def test_ra_add_of_two_defs_becomes_lea():
    buf = buffer_from_uops(
        [
            Uop(UopOp.ADD, dst=UReg.EAX, src_a=UReg.EBX, imm=4),
            Uop(UopOp.ADD, dst=UReg.ECX, src_a=UReg.EDX, src_b=UReg.EAX),
        ]
    )
    Reassociation()(buf, ctx())
    lea = buf.uops[1]
    assert lea.op is UopOp.LEA
    assert lea.src_b == LiveIn(UReg.EBX) and lea.imm == 4


def test_ra_folds_lea_into_memory_child():
    buf = buffer_from_uops(
        [
            Uop(UopOp.LEA, dst=UReg.ESI, src_a=UReg.EBX, src_b=UReg.EDI,
                scale=4, imm=0x10),
            Uop(UopOp.LOAD, dst=UReg.EAX, src_a=UReg.ESI, imm=4),
        ]
    )
    Reassociation()(buf, ctx())
    load = buf.uops[1]
    assert load.src_a == LiveIn(UReg.EBX)
    assert load.src_b == LiveIn(UReg.EDI)
    assert load.scale == 4 and load.imm == 0x14


# ------------------------------------------------------------------- CSE


def test_cse_removes_duplicate_alu():
    buf = buffer_from_uops(
        [
            Uop(UopOp.ADD, dst=UReg.EAX, src_a=UReg.EBX, imm=8),
            Uop(UopOp.ADD, dst=UReg.ECX, src_a=UReg.EBX, imm=8),
            Uop(UopOp.MOV, dst=UReg.EDX, src_a=UReg.ECX),
        ]
    )
    CommonSubexpression()(buf, ctx())
    assert not buf.uops[1].valid
    assert buf.uops[2].src_a == DefRef(0)


def test_cse_removes_redundant_load():
    load = lambda dst: Uop(UopOp.LOAD, dst=dst, src_a=UReg.ESI, imm=0)
    buf = buffer_from_uops([load(UReg.EAX), load(UReg.EBX)])
    changes = CommonSubexpression()(buf, ctx())
    assert changes == 1
    assert not buf.uops[1].valid
    assert buf.live_out[UReg.EBX] == DefRef(0)


def test_cse_blocked_by_must_alias_store():
    buf = buffer_from_uops(
        [
            Uop(UopOp.LOAD, dst=UReg.EAX, src_a=UReg.ESI, imm=0),
            Uop(UopOp.STORE, src_a=UReg.ESI, imm=0, src_data=UReg.EBX),
            Uop(UopOp.LOAD, dst=UReg.ECX, src_a=UReg.ESI, imm=0),
        ]
    )
    CommonSubexpression()(buf, ctx())
    assert buf.uops[2].valid  # store forwarding's case, not CSE's


def test_cse_passes_disjoint_same_base_store():
    buf = buffer_from_uops(
        [
            Uop(UopOp.LOAD, dst=UReg.EAX, src_a=UReg.ESI, imm=0),
            Uop(UopOp.STORE, src_a=UReg.ESI, imm=16, src_data=UReg.EBX),
            Uop(UopOp.LOAD, dst=UReg.ECX, src_a=UReg.ESI, imm=0),
        ]
    )
    CommonSubexpression()(buf, ctx())
    assert not buf.uops[2].valid
    assert not buf.uops[1].unsafe  # statically disjoint: no speculation


def test_cse_speculates_past_may_alias_store():
    first = Uop(UopOp.LOAD, dst=UReg.EAX, src_a=UReg.ESI, imm=0)
    first.mem_address = 0x1000
    store = Uop(UopOp.STORE, src_a=UReg.EDI, imm=0, src_data=UReg.EBX)
    store.mem_address = 0x2000  # observed disjoint
    second = Uop(UopOp.LOAD, dst=UReg.ECX, src_a=UReg.ESI, imm=0)
    second.mem_address = 0x1000
    buf = buffer_from_uops([first, store, second])
    context = ctx(speculation=True)
    CommonSubexpression()(buf, context)
    assert not buf.uops[2].valid
    assert buf.uops[1].unsafe
    assert buf.uops[1].unsafe_guards == [0]
    assert context.stats.loads_removed_speculatively == 1


def test_cse_no_speculation_when_disabled():
    first = Uop(UopOp.LOAD, dst=UReg.EAX, src_a=UReg.ESI, imm=0)
    first.mem_address = 0x1000
    store = Uop(UopOp.STORE, src_a=UReg.EDI, imm=0, src_data=UReg.EBX)
    store.mem_address = 0x2000
    second = Uop(UopOp.LOAD, dst=UReg.ECX, src_a=UReg.ESI, imm=0)
    second.mem_address = 0x1000
    buf = buffer_from_uops([first, store, second])
    CommonSubexpression()(buf, ctx(speculation=False))
    assert buf.uops[2].valid


def test_cse_no_speculation_when_observed_alias():
    first = Uop(UopOp.LOAD, dst=UReg.EAX, src_a=UReg.ESI, imm=0)
    first.mem_address = 0x1000
    store = Uop(UopOp.STORE, src_a=UReg.EDI, imm=0, src_data=UReg.EBX)
    store.mem_address = 0x1000  # actually aliased during construction
    second = Uop(UopOp.LOAD, dst=UReg.ECX, src_a=UReg.ESI, imm=0)
    second.mem_address = 0x1000
    buf = buffer_from_uops([first, store, second])
    CommonSubexpression()(buf, ctx(speculation=True))
    assert buf.uops[2].valid


# -------------------------------------------------------- store forwarding


def test_sf_forwards_store_to_load():
    buf = buffer_from_uops(
        [
            Uop(UopOp.STORE, src_a=UReg.ESP, imm=-4, src_data=UReg.EBP),
            Uop(UopOp.LOAD, dst=UReg.EBX, src_a=UReg.ESP, imm=-4),
            Uop(UopOp.ADD, dst=UReg.EAX, src_a=UReg.EBX, imm=1),
        ]
    )
    StoreForwarding()(buf, ctx())
    assert not buf.uops[1].valid
    assert buf.uops[2].src_a == LiveIn(UReg.EBP)
    assert buf.live_out[UReg.EBX] == LiveIn(UReg.EBP)


def test_sf_never_removes_stores():
    buf = buffer_from_uops(
        [
            Uop(UopOp.STORE, src_a=UReg.ESP, imm=-4, src_data=UReg.EBP),
            Uop(UopOp.LOAD, dst=UReg.EBX, src_a=UReg.ESP, imm=-4),
        ]
    )
    StoreForwarding()(buf, ctx())
    assert buf.uops[0].valid


def test_sf_requires_full_width():
    buf = buffer_from_uops(
        [
            Uop(UopOp.STORE, src_a=UReg.ESP, imm=-4, src_data=UReg.EBP, size=2),
            Uop(UopOp.LOAD, dst=UReg.EBX, src_a=UReg.ESP, imm=-4, size=2),
        ]
    )
    StoreForwarding()(buf, ctx())
    assert buf.uops[1].valid  # narrow stores truncate: memory must supply


def test_sf_blocked_by_partial_overlap():
    buf = buffer_from_uops(
        [
            Uop(UopOp.STORE, src_a=UReg.ESP, imm=0, src_data=UReg.EBP),
            Uop(UopOp.STORE, src_a=UReg.ESP, imm=2, src_data=UReg.EAX, size=2),
            Uop(UopOp.LOAD, dst=UReg.EBX, src_a=UReg.ESP, imm=0),
        ]
    )
    StoreForwarding()(buf, ctx())
    assert buf.uops[2].valid


def test_sf_speculates_and_marks_unsafe():
    store1 = Uop(UopOp.STORE, src_a=UReg.ESP, imm=-4, src_data=UReg.EBP)
    store1.mem_address = 0xF000
    wild = Uop(UopOp.STORE, src_a=UReg.EDI, imm=0, src_data=UReg.EAX)
    wild.mem_address = 0x2000
    load = Uop(UopOp.LOAD, dst=UReg.EBX, src_a=UReg.ESP, imm=-4)
    load.mem_address = 0xF000
    buf = buffer_from_uops([store1, wild, load])
    context = ctx(speculation=True)
    StoreForwarding()(buf, context)
    assert not buf.uops[2].valid
    assert buf.uops[1].unsafe and buf.uops[1].unsafe_guards == [0]


# ------------------------------------------------------------------- DCE


def test_dce_removes_dead_chain():
    buf = buffer_from_uops(
        [
            Uop(UopOp.LIMM, dst=UReg.ET0, imm=1),
            Uop(UopOp.ADD, dst=UReg.ET1, src_a=UReg.ET0, imm=2),
        ]
    )
    changes = DeadCodeElimination()(buf, ctx())
    assert changes == 2
    assert buf.valid_count() == 0


def test_dce_keeps_live_out_values():
    buf = buffer_from_uops([Uop(UopOp.LIMM, dst=UReg.EAX, imm=1)])
    assert DeadCodeElimination()(buf, ctx()) == 0


def test_dce_keeps_live_flags():
    buf = buffer_from_uops(
        [Uop(UopOp.SUB, dst=None, src_a=UReg.EAX, imm=1, writes_flags=True)]
    )
    # The compare is the frame's last flag writer: flags are live-out.
    assert DeadCodeElimination()(buf, ctx()) == 0


def test_dce_removes_overwritten_flag_def():
    buf = buffer_from_uops(
        [
            Uop(UopOp.SUB, dst=None, src_a=UReg.EAX, imm=1, writes_flags=True),
            Uop(UopOp.SUB, dst=None, src_a=UReg.EAX, imm=2, writes_flags=True),
        ]
    )
    DeadCodeElimination()(buf, ctx())
    assert not buf.uops[0].valid and buf.uops[1].valid


def test_dce_never_removes_stores_or_asserts():
    buf = buffer_from_uops(
        [
            Uop(UopOp.STORE, src_a=UReg.ESP, imm=-4, src_data=UReg.EBP),
            Uop(UopOp.ASSERT, cond=Cond.Z),
        ]
    )
    assert DeadCodeElimination()(buf, ctx()) == 0


def test_dce_block_scope_protects_block_boundaries():
    uops = [
        Uop(UopOp.LIMM, dst=UReg.EAX, imm=1),  # block 0
        Uop(UopOp.BR, cond=Cond.Z, target=0),
        Uop(UopOp.LIMM, dst=UReg.EAX, imm=2),  # block 1
    ]
    frame_buf = buffer_from_uops(uops, block_starts=[0, 2])
    DeadCodeElimination()(frame_buf, ctx(scope="frame"))
    assert not frame_buf.uops[0].valid  # frame scope: first def dead

    block_buf = buffer_from_uops(
        [u.copy() for u in uops], block_starts=[0, 2]
    )
    DeadCodeElimination()(block_buf, ctx(scope="block"))
    assert block_buf.uops[0].valid  # may be observed at the block exit


# -------------------------------------------------------- value assertion


def test_asst_fuses_cmp_and_assert():
    buf = buffer_from_uops(
        [
            Uop(UopOp.SUB, dst=None, src_a=UReg.EAX, imm=5, writes_flags=True),
            Uop(UopOp.ASSERT, cond=Cond.Z),
        ]
    )
    changes = ValueAssertion()(buf, ctx())
    assert changes == 1
    assert not buf.uops[0].valid
    fused = buf.uops[1]
    assert fused.op is UopOp.ASSERT_CMP
    assert fused.cmp_kind is UopOp.SUB and fused.imm == 5
    assert fused.writes_flags  # flags were architecturally live-out
    assert buf.flags_live_out_slot == 1


def test_asst_requires_dead_value():
    buf = buffer_from_uops(
        [
            Uop(UopOp.SUB, dst=UReg.EAX, src_a=UReg.EAX, imm=5,
                writes_flags=True),
            Uop(UopOp.ASSERT, cond=Cond.Z),
        ]
    )
    # EAX is live-out, so the SUB cannot be absorbed.
    assert ValueAssertion()(buf, ctx()) == 0


def test_asst_requires_single_flag_consumer():
    buf = buffer_from_uops(
        [
            Uop(UopOp.SUB, dst=None, src_a=UReg.EAX, imm=5, writes_flags=True),
            Uop(UopOp.ASSERT, cond=Cond.Z),
            Uop(UopOp.BR, cond=Cond.S, target=0x10),
        ]
    )
    assert ValueAssertion()(buf, ctx()) == 0
