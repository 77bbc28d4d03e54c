"""Micro-Op Injector: shared static decode flows with per-instance addresses."""

import pytest

from helpers import inject, run_program
from repro.harness import CONFIGS, experiment
from repro.optimizer import FrameOptimizer
from repro.replay import FrameConstructor, RePLaySequencer
from repro.replay.sequencer import ICacheSequencer
from repro.timing.pipeline import PipelineModel
from repro.trace import DynamicTrace, InjectionError, MicroOpInjector, MemOp, TraceRecord
from repro.trace import injector as injector_module
from repro.trace.injector import InjectedTrace, inject_once
from repro.tracecache import TraceCacheSequencer
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


def test_rpo_run_leaves_static_uops_unannotated(monkeypatch, matrix):
    """Only the frame constructor's copies carry addresses: an RPO run
    writes nothing into the Translator's shared decode flows."""
    injectors = []

    class RecordingInjector(MicroOpInjector):
        def __init__(self) -> None:
            super().__init__()
            injectors.append(self)

    monkeypatch.setattr(injector_module, "MicroOpInjector", RecordingInjector)
    monkeypatch.setattr(injector_module, "_memo", ())
    result = experiment.run_experiment(matrix.trace("vortex"), CONFIGS["RPO"])
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


def test_injected_trace_carries_its_totals(loop_asm):
    """Counted while injecting, even by an injector that injected before."""
    _, _, trace = run_program(loop_asm)
    injector = MicroOpInjector()
    injector.inject(trace[0])
    injected = injector.inject_trace(trace)
    assert isinstance(injected, InjectedTrace) and len(injected) == len(trace)
    uops = [u for instr in injected for u in instr.uops]
    assert injected.x86_count == len(trace)
    assert injected.uop_count == len(uops)
    assert injected.load_count == sum(u.is_load for u in uops) > 0
    assert injected.uops_per_x86 == len(uops) / len(trace)
    assert InjectedTrace().uops_per_x86 == 0.0


# ------------------------------------------------------ injected-stream memo


@pytest.fixture
def counted_injections(monkeypatch):
    """Empty the memo and record every trace ``inject_trace`` is called on."""
    monkeypatch.setattr(injector_module, "_memo", ())
    traces = []
    inject_trace = MicroOpInjector.inject_trace

    def recording(self, trace):
        traces.append(trace)
        return inject_trace(self, trace)

    monkeypatch.setattr(MicroOpInjector, "inject_trace", recording)
    return traces


def test_run_experiment_injects_a_trace_once(counted_injections, loop_asm):
    _, _, trace = run_program(loop_asm)
    first = experiment.run_experiment(trace, CONFIGS["RPO"])
    second = experiment.run_experiment(trace, CONFIGS["RPO"])
    assert len(counted_injections) == 1 and counted_injections[0] is trace
    assert first.sim == second.sim
    assert first.uops_per_x86 == second.uops_per_x86 > 1.0


def test_next_trace_evicts_the_last(counted_injections, loop_asm):
    _, _, first = run_program(loop_asm)
    second = DynamicTrace(first.records, name="same records, other trace")
    injected = inject_once(first)
    assert inject_once(first) is injected
    assert inject_once(second) is not injected
    assert len(injector_module._memo) == 2 and injector_module._memo[0] is second
    inject_once(first)
    assert counted_injections == [first, second, first]


def _rejected_trace() -> DynamicTrace:
    instr = Instruction(Mnemonic.MOV, (Reg.EAX, mem(Reg.ESI)))
    instr.length = 2
    return DynamicTrace([TraceRecord(pc=0, instruction=instr, next_pc=2)])


def test_failed_injection_memoizes_nothing(counted_injections, loop_asm):
    _, _, good = run_program(loop_asm)
    inject_once(good)
    bad = _rejected_trace()
    for _ in range(2):
        with pytest.raises(InjectionError):
            inject_once(bad)
        assert injector_module._memo == ()
    with pytest.raises(InjectionError):
        experiment.run_experiment(bad, CONFIGS["IC"])
    assert injector_module._memo == ()
    assert counted_injections == [good, bad, bad, bad]


def _fresh_sim(trace, config):
    """Simulate ``config`` from a stream no other simulation has seen."""
    injected = MicroOpInjector().inject_trace(trace)
    if config.frontend == "icache":
        sequencer = ICacheSequencer(injected, config.processor)
    elif config.frontend == "tcache":
        sequencer = TraceCacheSequencer(injected, config.processor)
    else:
        optimizer = FrameOptimizer(config.optimizer) if config.optimize else None
        sequencer = RePLaySequencer(
            injected,
            config.processor,
            optimizer,
            constructor_config=config.constructor,
        )
    return PipelineModel(config.processor).simulate(sequencer), sequencer.stats


def test_memoized_stream_simulates_like_a_fresh_one(counted_injections):
    trace = build_workload("eon", scale=1)
    for name in ("IC", "TC", "RP", "RPO"):
        result = experiment.run_experiment(trace, CONFIGS[name])
        sim, stats = _fresh_sim(trace, CONFIGS[name])
        assert result.sim == sim, name
        assert result.sequencer_stats == stats, name
    assert result.sim.frames_fetched > 0
    assert counted_injections.count(trace) == 5


def test_trace_stats(loop_asm):
    _, _, trace = run_program(loop_asm)
    stats = trace.stats()
    assert stats.x86_instructions == len(trace)
    assert stats.loads > 0 and stats.stores > 0
    assert 0.9 <= stats.taken_ratio <= 1.0  # loop branch almost always taken
    assert stats.unique_pcs < stats.x86_instructions
