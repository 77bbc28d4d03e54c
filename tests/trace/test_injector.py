"""Micro-Op Injector: shared static decode flows with per-instance addresses,
held in one flat stream per trace."""

import gc
import weakref

import pytest

from helpers import inject, instance_event, region_frame, run_program
from repro.artifacts import runner
from repro.harness import CONFIGS, experiment
from repro.harness.figures import ResultMatrix, run_fig6, run_table3
from repro.optimizer import FrameOptimizer
from repro.replay import RePLaySequencer
from repro.replay.constructor import closed_regions
from repro.replay.sequencer import ICacheSequencer
from repro.timing.pipeline import PipelineModel
from repro.trace import DynamicTrace, InjectionError, MicroOpInjector, MemOp, TraceRecord
from repro.trace import injector as injector_module
from repro.trace.injector import InjectedTrace, inject_once
from repro.tracecache import TraceCacheSequencer
from repro.uops import UopOp
from repro.uops.translate import Translator
from repro.workloads import all_workloads, build_workload
from repro.x86 import Reg, mem
from repro.x86.instructions import Instruction, Mnemonic


def test_mem_addresses_attached_in_order(loop_asm):
    _, _, trace = run_program(loop_asm)
    injected = inject(trace)
    offsets = injected.offsets
    for position, record in enumerate(injected.records):
        lo, hi = offsets[position], offsets[position + 1]
        mem_ops = iter(record.mem_ops)
        for uop, address in zip(injected.uops[lo:hi], injected.addresses[lo:hi]):
            if uop.is_mem:
                mem_op = next(mem_ops)
                assert address == mem_op.address
                assert uop.is_store == mem_op.is_store
            else:
                assert address is None
        assert next(mem_ops, None) is None
    # ...and reach the frame constructor's per-instance copies.
    frame = region_frame(injected, 0, 12)
    assert [u.mem_address for u in frame.dyn_uops if u.is_mem] == [
        m.address for record in injected.records[:12] for m in record.mem_ops
    ]


def _converted_controls(injected, count=12):
    """(converted uop, its record, its instruction's uops) for every mid-frame
    control uop of the frames built over each ``count``-instruction window
    of the stream."""
    for start in range(len(injected) - 1):
        stop = min(start + count, len(injected))
        frame = region_frame(injected, start, stop - start)
        for uop, x86_index in zip(frame.dyn_uops, frame.x86_indices):
            if uop.is_assertion:
                position = start + x86_index
                lo, hi = injected.offsets[position], injected.offsets[position + 1]
                yield uop, injected.records[position], injected.uops[lo:hi]


def test_branch_outcomes_attached(loop_asm):
    _, _, trace = run_program(loop_asm)
    directions = set()
    for uop, record, uops in _converted_controls(inject(trace)):
        if record.is_conditional_branch:
            (branch,) = [u for u in uops if u.op is UopOp.BR]
            assert uop.op is UopOp.ASSERT and uop.target is None
            expected = branch.cond if record.branch_taken else branch.cond.inverse()
            assert uop.cond == expected
            directions.add(record.branch_taken)
    assert directions == {True, False}


def test_indirect_targets_attached(loop_asm):
    _, _, trace = run_program(loop_asm)
    targets = set()
    for uop, record, _ in _converted_controls(inject(trace)):
        if record.instruction.mnemonic is Mnemonic.RET:
            assert uop.op is UopOp.ASSERT_CMP
            assert uop.imm == record.next_pc
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
    (first, first_addresses), (second, second_addresses) = (
        injector.inject(loads[0]),
        injector.inject(loads[1]),
    )
    assert first is second and first.uops is second.uops
    assert first_addresses != second_addresses
    assert [a for a in first_addresses if a is not None] == [
        m.address for m in loads[0].mem_ops
    ]
    assert all(u.mem_address is None for u in first.uops)

    plain = next(records for records in repeated if not records[0].mem_ops)
    (first, first_addresses), (second, second_addresses) = (
        injector.inject(plain[0]),
        injector.inject(plain[1]),
    )
    assert first.uops is second.uops
    assert first_addresses is second_addresses is first.no_addresses
    assert set(first_addresses) == {None}


def test_rpo_run_leaves_static_uops_unannotated(monkeypatch, matrix):
    """Only the frame constructor's copies carry addresses: an RPO run
    writes nothing into the Translator's shared decode flows."""
    injectors = []

    class RecordingInjector(MicroOpInjector):
        def __init__(self) -> None:
            super().__init__()
            injectors.append(self)

    monkeypatch.setattr(injector_module, "MicroOpInjector", RecordingInjector)
    # A new trace over the shared records: its stream is not built yet.
    trace = DynamicTrace(matrix.trace("vortex").records)
    result = experiment.run_experiment(trace, CONFIGS["RPO"])
    assert result.sequencer_stats.frame_dispatches > 0
    (injector,) = injectors
    flows = [uops for _, uops in injector.translator._cache.values()]
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
    injected = MicroOpInjector().inject_trace(trace)
    assert injected.x86_count == len(trace)
    assert injected.uop_count > injected.x86_count


def test_injected_trace_carries_its_totals(loop_asm):
    """Counted while injecting, even by an injector that injected before."""
    _, _, trace = run_program(loop_asm)
    injector = MicroOpInjector()
    injector.inject(trace[0])
    injected = injector.inject_trace(trace)
    assert isinstance(injected, InjectedTrace) and len(injected) == len(trace)
    assert injected.records is trace.records
    uops = [u for record in trace for u in injector.inject(record)[0].uops]
    assert injected.uops == uops
    assert injected.x86_count == len(trace)
    assert injected.uop_count == len(uops)
    assert injected.load_count == sum(u.is_load for u in uops) > 0
    assert injected.uops_per_x86 == len(uops) / len(trace)
    assert injector.inject_trace([]).uops_per_x86 == 0.0


# ---------------------------------------------------- the trace's own stream


@pytest.fixture
def counted_injections(monkeypatch):
    """Record every trace ``inject_trace`` is called on."""
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


def test_each_trace_keeps_its_own_stream(counted_injections, loop_asm):
    _, _, first = run_program(loop_asm)
    second = DynamicTrace(first.records, name="same records, other trace")
    injected = inject_once(first)
    assert first.injected is injected and inject_once(first) is injected
    other = inject_once(second)
    assert other is not injected and other.records is injected.records
    assert inject_once(first) is injected and inject_once(second) is other
    assert counted_injections == [first, second]


def test_stream_is_freed_with_its_trace(loop_asm):
    _, _, trace = run_program(loop_asm)
    injected = inject_once(trace)
    assert closed_regions(injected)  # memoized on the stream
    stream = weakref.ref(injected)
    del injected
    gc.collect()
    assert stream() is trace.injected
    del trace
    gc.collect()
    assert stream() is None


def test_table3_then_fig6_injects_each_trace_once(counted_injections, monkeypatch):
    """Figure 6 reuses the streams Table 3 built, although every Table 3
    cell runs before the first Figure 6 cell."""
    monkeypatch.setattr(runner, "_TRACE_MEMO", {})
    matrix = ResultMatrix()
    workloads = ["vortex", "power"]
    run_table3(matrix, workloads)
    run_fig6(matrix, workloads)
    assert len(matrix._results) == 8
    assert sorted(trace.name for trace in counted_injections) == sorted(workloads)


@pytest.mark.parametrize("workload", [w.name for w in all_workloads()])
def test_stream_pairs_each_record_with_its_flow(matrix, workload):
    """Per instruction, the offsets delimit its flow's uops and, at the
    flow's memory slots, the record's addresses."""
    trace = matrix.trace(workload)
    injected = inject_once(trace)
    assert injected.records is trace.records
    assert injected.pcs == [record.pc for record in trace.records]
    offsets = injected.offsets
    assert len(offsets) == len(trace) + 1 and offsets[0] == 0
    assert offsets[-1] == len(injected.uops) == len(injected.addresses)
    translator = Translator()
    for position, record in enumerate(injected.records):
        lo, hi = offsets[position], offsets[position + 1]
        uops = translator.translate(record.instruction)
        assert tuple(injected.uops[lo:hi]) == uops
        slots = [i for i, uop in enumerate(uops) if uop.is_mem]
        assert len(slots) == len(record.mem_ops)
        placed = [None] * len(uops)
        for slot, mem_op in zip(slots, record.mem_ops):
            placed[slot] = mem_op.address
        assert injected.addresses[lo:hi] == placed


CONTROL_OPS = (UopOp.BR, UopOp.JMP, UopOp.JMPI)


@pytest.mark.parametrize("workload", [w.name for w in all_workloads()])
def test_stream_events_are_the_predictable_transfers(matrix, workload):
    """The event map's keys are exactly the control uops of predictable
    transfers, each mapped to the event built from its record."""
    injected = inject_once(matrix.trace(workload))
    offsets = injected.offsets
    expected = {}
    for position, record in enumerate(injected.records):
        event = instance_event(record)
        if event is not None:
            lo, hi = offsets[position], offsets[position + 1]
            (key,) = [
                k for k in range(lo, hi) if injected.uops[k].op in CONTROL_OPS
            ][:1]
            expected[key] = event
    assert injected.events == expected
    assert expected


def test_one_injector_serves_every_program(matrix):
    """A reused injector gives each trace the stream a fresh injector
    gives it, though the 14 programs share instruction addresses."""
    shared = MicroOpInjector()
    for workload in all_workloads():
        trace = matrix.trace(workload.name)
        fresh = inject_once(trace)
        reused = shared.inject_trace(trace)
        assert reused.uops == fresh.uops, workload.name
        assert reused.offsets == fresh.offsets, workload.name
        assert reused.addresses == fresh.addresses, workload.name
        assert reused.events == fresh.events, workload.name


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
        assert bad.injected is None
    with pytest.raises(InjectionError):
        experiment.run_experiment(bad, CONFIGS["IC"])
    assert bad.injected is None and good.injected is not None
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
