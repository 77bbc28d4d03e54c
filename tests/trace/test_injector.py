"""Micro-Op Injector: shared static decode flows with per-instance addresses."""

import pytest

from helpers import inject, run_program
from repro.harness import CONFIGS, experiment
from repro.replay import FrameConstructor
from repro.trace import DynamicTrace, InjectionError, MicroOpInjector, MemOp, TraceRecord
from repro.uops import UopOp
from repro.workloads import build_workload
from repro.x86 import Assembler, Cond, Imm, Reg, mem
from repro.x86.instructions import Instruction, Mnemonic


def test_mem_addresses_attached_in_order(loop_asm):
    _, _, trace = run_program(loop_asm)
    injected = inject(trace)
    for instr in injected:
        assert len(instr.addresses) == len(instr.uops)
        mem_ops = iter(instr.record.mem_ops)
        for uop, address in zip(instr.uops, instr.addresses):
            if uop.is_mem:
                mem_op = next(mem_ops)
                assert address == mem_op.address
                assert uop.is_store == mem_op.is_store
            else:
                assert address is None
        assert next(mem_ops, None) is None
    # ...and reach the frame constructor's per-instance copies.
    region = injected[:12]
    frame = FrameConstructor().build_frame(region, region[-1].record.next_pc)
    assert [u.mem_address for u in frame.dyn_uops if u.is_mem] == [
        m.address for instr in region for m in instr.record.mem_ops
    ]


def _converted_controls(injected, count=12):
    """(converted uop, its instruction) for every mid-frame control uop of the
    frames built over each ``count``-instruction window of the stream."""
    for start in range(len(injected) - 1):
        region = injected[start : start + count]
        frame = FrameConstructor().build_frame(region, region[-1].record.next_pc)
        for uop, x86_index in zip(frame.dyn_uops, frame.x86_indices):
            if uop.is_assertion:
                yield uop, region[x86_index]


def test_branch_outcomes_attached(loop_asm):
    _, _, trace = run_program(loop_asm)
    directions = set()
    for uop, instr in _converted_controls(inject(trace)):
        record = instr.record
        if record.is_conditional_branch:
            (branch,) = [u for u in instr.uops if u.op is UopOp.BR]
            assert uop.op is UopOp.ASSERT and uop.target is None
            expected = branch.cond if record.branch_taken else branch.cond.inverse()
            assert uop.cond == expected
            directions.add(record.branch_taken)
    assert directions == {True, False}


def test_indirect_targets_attached(loop_asm):
    _, _, trace = run_program(loop_asm)
    targets = set()
    for uop, instr in _converted_controls(inject(trace)):
        if instr.record.instruction.mnemonic is Mnemonic.RET:
            assert uop.op is UopOp.ASSERT_CMP
            assert uop.imm == instr.record.next_pc
            targets.add(uop.imm)
    assert targets


def test_instances_share_uops_keep_own_addresses(loop_asm):
    """Instances share the static decode flow; addresses stay per instance."""
    _, _, trace = run_program(loop_asm)
    injector = MicroOpInjector()
    instances: dict[int, list] = {}
    for record in trace:
        instances.setdefault(record.pc, []).append(record)
    repeated = [records for records in instances.values() if len(records) > 1]
    loads = next(
        records
        for records in repeated
        if records[0].loads
        and records[0].mem_ops[0].address != records[1].mem_ops[0].address
    )
    first, second = injector.inject(loads[0]), injector.inject(loads[1])
    assert first.uops is second.uops
    assert first.addresses != second.addresses
    assert [a for a in first.addresses if a is not None] == [
        m.address for m in loads[0].mem_ops
    ]
    assert all(u.mem_address is None for u in first.uops)

    plain = next(records for records in repeated if not records[0].mem_ops)
    first, second = injector.inject(plain[0]), injector.inject(plain[1])
    assert first.uops is second.uops
    assert first.addresses is second.addresses
    assert set(first.addresses) == {None}


def test_rpo_run_leaves_static_uops_unannotated(monkeypatch):
    """Only the frame constructor's copies carry addresses: an RPO run
    writes nothing into the Translator's shared decode flows."""
    injectors = []

    class RecordingInjector(MicroOpInjector):
        def __init__(self) -> None:
            super().__init__()
            injectors.append(self)

    monkeypatch.setattr(experiment, "MicroOpInjector", RecordingInjector)
    result = experiment.run_experiment(build_workload("vortex"), CONFIGS["RPO"])
    assert result.sequencer_stats.frame_dispatches > 0
    (injector,) = injectors
    flows = list(injector.translator._cache.values())
    assert any(u.is_mem for flow in flows for u in flow)
    assert all(u.mem_address is None for flow in flows for u in flow)


def test_mismatched_mem_ops_rejected():
    instr = Instruction(Mnemonic.MOV, (Reg.EAX, mem(Reg.ESI)))
    instr.length = 2
    record = TraceRecord(pc=0, instruction=instr, next_pc=2, mem_ops=())
    with pytest.raises(InjectionError, match="more"):
        MicroOpInjector().inject(record)


def test_wrong_kind_mem_op_rejected():
    instr = Instruction(Mnemonic.MOV, (Reg.EAX, mem(Reg.ESI)))
    instr.length = 2
    record = TraceRecord(
        pc=0,
        instruction=instr,
        next_pc=2,
        mem_ops=(MemOp(is_store=True, address=0, size=4, data=0),),
    )
    with pytest.raises(InjectionError, match=r"kind mismatch in mov EAX, \[ESI\]"):
        MicroOpInjector().inject(record)


def test_extra_mem_ops_rejected():
    instr = Instruction(Mnemonic.MOV, (Reg.EAX, Reg.EBX))
    instr.length = 2
    record = TraceRecord(
        pc=0,
        instruction=instr,
        next_pc=2,
        mem_ops=(MemOp(is_store=False, address=0, size=4, data=0),),
    )
    with pytest.raises(InjectionError, match="recorded"):
        MicroOpInjector().inject(record)


def test_stats_counted(loop_asm):
    _, _, trace = run_program(loop_asm)
    injector = MicroOpInjector()
    injector.inject_trace(trace)
    assert injector.x86_count == len(trace)
    assert injector.uop_count > injector.x86_count


def test_trace_stats(loop_asm):
    _, _, trace = run_program(loop_asm)
    stats = trace.stats()
    assert stats.x86_instructions == len(trace)
    assert stats.loads > 0 and stats.stores > 0
    assert 0.9 <= stats.taken_ratio <= 1.0  # loop branch almost always taken
    assert stats.unique_pcs < stats.x86_instructions
