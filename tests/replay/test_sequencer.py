"""Sequencer: frame dispatch, firing, recovery, statistics."""

from collections import Counter
from dataclasses import replace

from helpers import inject, instance_event, run_program
from repro.harness.experiment import CONFIGS, run_experiment
from repro.metrics import MetricsRegistry
from repro.optimizer import FrameOptimizer
from repro.replay import ConstructorConfig, RePLaySequencer
from repro.replay.sequencer import ICacheSequencer
from repro.timing.config import default_config
from repro.timing.pipeline import PipelineModel
from repro.timing.schedule import FrameSchedule, ScheduleBuilder
from repro.verify import StateVerifier
from repro.x86 import Assembler, Cond, Imm, Reg, mem


def biased_loop_asm(iterations=200):
    asm = Assembler()
    asm.data_words(0x500000, list(range(1, 65)))
    asm.mov(Reg.ESI, Imm(0x500000))
    asm.mov(Reg.ECX, Imm(iterations))
    asm.xor(Reg.EAX, Reg.EAX)
    asm.xor(Reg.EDI, Reg.EDI)
    asm.label("loop")
    asm.mov(Reg.EDX, mem(Reg.ESI, index=Reg.EDI, scale=4))
    asm.add(Reg.EAX, Reg.EDX)
    asm.push(Reg.EAX)
    asm.pop(Reg.EBX)
    asm.inc(Reg.EDI)
    asm.and_(Reg.EDI, Imm(63))
    asm.dec(Reg.ECX)
    asm.jcc(Cond.NZ, "loop")
    asm.ret()
    return asm


def run_sequencer(asm, optimize=True, verify=False, **constructor_kwargs):
    _, _, trace = run_program(asm)
    injected = inject(trace)
    config = default_config()
    optimizer = FrameOptimizer() if optimize else None
    verifier = StateVerifier() if verify else None
    sequencer = RePLaySequencer(
        injected,
        config,
        optimizer,
        constructor_config=ConstructorConfig(**constructor_kwargs),
        verifier=verifier,
    )
    result = PipelineModel(config).simulate(sequencer)
    return sequencer, result


def test_icache_sequencer_covers_whole_trace(loop_asm):
    _, _, trace = run_program(loop_asm)
    injected = inject(trace)
    sequencer = ICacheSequencer(injected, default_config())
    result = PipelineModel(default_config()).simulate(sequencer)
    assert result.x86_retired == len(trace)
    assert result.coverage == 0.0


def test_replay_sequencer_retires_everything():
    sequencer, result = run_sequencer(biased_loop_asm())
    uops = sequencer.injected.uops
    assert sequencer.stats.raw_uops_total == len(uops) > result.x86_retired
    assert sequencer.stats.raw_loads_total == sum(u.is_load for u in uops) > 0
    assert result.x86_retired == len(sequencer.injected)


def test_frames_cover_hot_loop():
    _, result = run_sequencer(biased_loop_asm())
    assert result.coverage > 0.5
    assert result.frames_fetched > 0


def test_optimization_reduces_dynamic_uops():
    sequencer, _ = run_sequencer(biased_loop_asm())
    stats = sequencer.stats
    assert stats.dynamic_uop_reduction > 0.05
    assert stats.dynamic_load_reduction > 0.0
    assert stats.frame_fetched_uops < stats.frame_raw_uops


def test_rp_mode_fetches_raw_uops():
    sequencer, _ = run_sequencer(biased_loop_asm(), optimize=False)
    stats = sequencer.stats
    assert stats.frame_dispatches > 0
    assert stats.frame_fetched_uops == stats.frame_raw_uops


def test_loop_exit_fires_assertion():
    # The loop backedge is promoted; the final not-taken instance cannot
    # match any frame path, so the tail either fires or goes uncovered.
    sequencer, result = run_sequencer(biased_loop_asm(400))
    assert result.frames_fired >= 1
    assert sequencer.stats.frame_aborts == result.frames_fired


def test_fired_region_reexecutes_from_icache():
    sequencer, result = run_sequencer(biased_loop_asm(400))
    # Fires never retire x86 instructions; the total must still balance.
    assert result.x86_retired == len(sequencer.injected)
    assert result.bins["assert"] > 0


def test_verifier_checks_frames():
    sequencer, _ = run_sequencer(biased_loop_asm(), verify=True)
    assert sequencer.verifier.instances_checked > 0


def stack_reading_loop_asm(iterations=300):
    """A loop at program entry whose frames read ESP before any write."""
    asm = Assembler()
    asm.data_words(0x500000, list(range(1, 65)))
    asm.mov(Reg.ECX, Imm(iterations))
    asm.xor(Reg.EDI, Reg.EDI)
    asm.xor(Reg.EAX, Reg.EAX)
    asm.label("loop")
    asm.mov(Reg.EBX, mem(Reg.ESP))
    asm.mov(Reg.EDX, mem(index=Reg.EDI, scale=4, disp=0x500000))
    asm.add(Reg.EAX, Reg.EDX)
    asm.add(Reg.EAX, Reg.EBX)
    asm.mov(mem(disp=0x500100), Reg.EDX)
    asm.inc(Reg.EDI)
    asm.and_(Reg.EDI, Imm(63))
    asm.dec(Reg.ECX)
    asm.jcc(Cond.NZ, "loop")
    asm.ret()
    return asm


def test_verifier_starts_from_the_entry_state():
    """The verified state starts where the emulator does, with ESP at
    the pushed exit address, so a frame that loads through the entry
    ESP verifies."""
    _, _, trace = run_program(stack_reading_loop_asm())
    result = run_experiment(trace, replace(CONFIGS["RPO"], verify=True))
    assert result.frames_verified > 0
    assert result.sim.x86_retired == len(trace)


def test_frame_commit_and_fire_counters():
    sequencer, _ = run_sequencer(biased_loop_asm(400))
    frames = list(sequencer.frame_cache._frames.values())
    # Cached frames carry commit counts (replaced frames lose theirs, so
    # the cache total is a lower bound on total dispatches).
    total_commits = sum(f.commits for f in frames)
    assert 0 < total_commits <= sequencer.stats.frame_dispatches


def test_optimizer_queue_totals_populated():
    sequencer, _ = run_sequencer(biased_loop_asm())
    totals = sequencer.queue.totals
    assert totals.frames_optimized > 0
    assert totals.uops_after < totals.uops_before
    assert 0 < totals.uop_reduction < 1


def test_every_block_carries_its_schedule(matrix, monkeypatch):
    """IC, TC, RP and RPO blocks carry the schedule their sequencer built.

    A line block is a window over its stream's uops, addresses and flat
    schedule (one schedule tuple per uop); a frame block's schedule is
    its frame's FrameSchedule, whose kept uops are the block's uops
    (committing or firing), all of them in the window.
    """
    blocks = []
    run_block = PipelineModel._run_block

    def recording_run_block(model, block):
        blocks.append(block)
        run_block(model, block)

    monkeypatch.setattr(PipelineModel, "_run_block", recording_run_block)
    trace = matrix.trace("parser")
    kinds = Counter()
    for name in ("IC", "TC", "RP", "RPO"):
        config = CONFIGS[name]
        blocks.clear()
        run_experiment(trace, config, metrics=MetricsRegistry())
        builder = ScheduleBuilder(config.processor)
        injected = trace.injected
        for block in blocks:
            assert len(block.addresses) == len(block.uops)
            if block.source == "frame":
                assert isinstance(block.sched, FrameSchedule)
                assert block.sched.kept is block.uops
                assert (block.lo, block.hi) == (0, len(block.uops))
                assert len(block.sched.sched) == len(block.uops)
                assert block.sched is block.frame.sched_template
                assert not block.branch_events
                kinds["fire" if block.fires else "frame"] += 1
            else:
                assert block.uops is injected.uops
                assert block.addresses is injected.addresses
                assert block.branch_events is injected.events
                assert 0 <= block.lo < block.hi <= len(block.uops)
                window = block.uops[block.lo : block.hi]
                assert block.sched[block.lo : block.hi] == [
                    builder.dyn_sched(u) for u in window
                ]
                kinds[block.source] += 1
    assert all(kinds[kind] > 0 for kind in ("icache", "tcache", "frame", "fire"))


def test_cached_train_events_match_each_instance(monkeypatch):
    """A frame's training events are built once, yet every committing
    instance gets the events a per-instance build gives, including a
    branch to its own fall-through whose direction flips mid-run."""
    asm = Assembler()
    asm.mov(Reg.ECX, Imm(400))
    asm.label("loop")
    asm.cmp(Reg.ECX, Imm(40))
    asm.jcc(Cond.A, "next")  # target is the fall-through; flips at ECX=40
    asm.label("next")
    asm.add(Reg.EBX, Reg.ECX)
    asm.call("leaf")
    asm.dec(Reg.ECX)
    asm.jcc(Cond.NZ, "loop")
    asm.ret()
    asm.label("leaf")
    asm.inc(Reg.EDX)
    asm.ret()

    builds = Counter()
    outcomes: dict[int, set] = {}
    train_events = RePLaySequencer._train_events
    build = RePLaySequencer._build_train_events

    def counting_build(sequencer, frame):
        builds[id(frame)] += 1
        return build(sequencer, frame)

    def checked_train_events(sequencer, frame):
        events = train_events(sequencer, frame)
        fresh = []
        for offset in range(frame.x86_count - 1):
            record = sequencer.injected.records[sequencer.index + offset]
            event = instance_event(record)
            if event is not None:
                fresh.append(event)
        assert events == fresh
        for k, _ in frame.train_events[1]:
            outcomes.setdefault(id(frame), set()).add(events[k].taken)
        return events

    monkeypatch.setattr(RePLaySequencer, "_build_train_events", counting_build)
    monkeypatch.setattr(RePLaySequencer, "_train_events", checked_train_events)
    sequencer, _ = run_sequencer(asm)
    assert sequencer.stats.frame_dispatches > 100
    assert builds and max(builds.values()) == 1
    assert any(taken == {True, False} for taken in outcomes.values())
