"""Frames built from retired regions: the deferred body and what reads it."""

import pytest

from repro.optimizer import FrameOptimizer
from repro.replay import FrameConstructor, RePLaySequencer
from repro.replay import frame as frame_module
from repro.timing.config import default_config
from repro.timing.pipeline import PipelineModel
from repro.trace.injector import MicroOpInjector

BODY = ("dyn_uops", "x86_indices", "mem_keys", "block_starts", "raw_load_count")


@pytest.fixture(scope="module")
def vortex(matrix):
    return MicroOpInjector().inject_trace(matrix.trace("vortex"))


@pytest.fixture
def frameify_calls(monkeypatch):
    """Count frame-ifications (every body is built by ``_frameify``)."""
    calls = []
    real = frame_module._frameify

    def counting(region):
        calls.append(len(region))
        return real(region)

    monkeypatch.setattr(frame_module, "_frameify", counting)
    return calls


def emitted_frames(injected):
    """Every frame ``retire`` emits, with the stream slice it covers."""
    constructor = FrameConstructor()
    emitted = []
    for index, instr in enumerate(injected):
        frame = constructor.retire(instr)
        if frame is None:
            continue
        # An overflowing instruction closes the region before itself.
        end = index if frame.end_next_pc == instr.record.pc else index + 1
        emitted.append((frame, injected[end - frame.x86_count : end]))
    return emitted


def test_deferred_body_matches_build_frame(vortex):
    emitted = emitted_frames(vortex)
    assert len(emitted) > 100
    # Bodies are read only after the whole stream has retired, so a
    # region the constructor reused or mutated would show here.
    for frame, region in emitted:
        assert [i.record.pc for i in region] == frame.x86_pcs
        expected = FrameConstructor().build_frame(region, frame.end_next_pc)
        assert frame.path_key == expected.path_key
        for name in BODY:
            assert getattr(frame, name) == getattr(expected, name), name
        assert frame.raw_load_count == sum(u.is_load for u in frame.dyn_uops)
        assert frame._region is None


def test_retire_frameifies_nothing(vortex, frameify_calls):
    emitted = emitted_frames(vortex)
    assert emitted and not frameify_calls
    frame, _ = emitted[0]
    frame.build_buffer()
    frame.dyn_uops
    assert frameify_calls == [frame.x86_count]


def simulate_rpo(injected, eager=False):
    config = default_config()
    sequencer = RePLaySequencer(injected, config, FrameOptimizer())
    if eager:
        retire = sequencer.constructor.retire

        def retire_and_frameify(instr):
            frame = retire(instr)
            if frame is not None:
                frame.body
            return frame

        sequencer.constructor.retire = retire_and_frameify
    result = PipelineModel(config).simulate(sequencer)
    return sequencer, result


def test_only_kept_frames_are_frameified(vortex, frameify_calls):
    sequencer, result = simulate_rpo(vortex)
    totals = sequencer.queue.totals
    assert frameify_calls and len(frameify_calls) == totals.frames_optimized
    assert sequencer.constructor.frames_emitted > 2 * totals.frames_optimized
    assert totals.frames_dropped > 0

    frameify_calls.clear()
    eager, eager_result = simulate_rpo(vortex, eager=True)
    assert len(frameify_calls) == eager.constructor.frames_emitted
    assert eager_result == result
    assert eager.stats == sequencer.stats
    assert eager.queue.totals == totals


def test_stored_uops_match_resident_buffers(vortex):
    sequencer, _ = simulate_rpo(vortex)
    cache = sequencer.frame_cache
    frames = cache.frames()
    assert any(f.sched_template is not None for f in frames)
    assert cache.evictions or cache.displacements
    assert cache.stored_uops == sum(f.buffer.valid_count() for f in frames)
