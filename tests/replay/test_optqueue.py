"""Optimization queue: latency, depth, duplicates, accounting."""

from helpers import inject, region_frame, run_program
from repro.optimizer import FrameOptimizer, OptimizerConfig
from repro.replay import FrameCache, OptimizationQueue
from repro.replay import frame as frame_module
from repro.replay.frame import Frame
from repro.uops import Uop, UopOp, UReg


def make_frame(pc: int, uop_count: int = 12) -> Frame:
    uops = []
    for i in range(uop_count - 1):
        uops.append(Uop(UopOp.MOV, dst=UReg.ET0, src_a=UReg.EAX))
    uops.append(Uop(UopOp.ADD, dst=UReg.EAX, src_a=UReg.EAX, imm=1))
    return Frame(
        start_pc=pc,
        x86_pcs=[pc + i for i in range(uop_count)],
        end_next_pc=pc + uop_count,
        dyn_uops=uops,
        x86_indices=list(range(uop_count)),
        mem_keys=[None] * uop_count,
    )


def queue_with(optimizer):
    cache = FrameCache()
    return cache, OptimizationQueue(cache, optimizer)


def test_rp_mode_deposits_immediately():
    cache, queue = queue_with(optimizer=None)
    assert queue.submit(make_frame(0x1000), now=0)
    assert cache.lookup(0x1000) is not None


def test_optimizer_latency_delays_visibility():
    # A latency other than the default 10, so a queue that ignored its
    # optimizer's config would fail.
    cache, queue = queue_with(FrameOptimizer(OptimizerConfig(cycles_per_uop=7)))
    frame = make_frame(0x1000, uop_count=12)
    queue.submit(frame, now=100)
    queue.drain(now=100 + 7 * 12 - 1)
    assert cache.lookup(0x1000) is None  # not ready yet
    queue.drain(now=100 + 7 * 12)
    assert cache.lookup(0x1000) is frame


def test_pipeline_depth_drops_excess_frames():
    cache, queue = queue_with(FrameOptimizer(OptimizerConfig(pipeline_depth=2)))
    for i in range(4):
        queue.submit(make_frame(0x1000 + 0x100 * i), now=0)
    assert queue.totals.frames_dropped == 2


def test_duplicate_paths_rejected():
    cache, queue = queue_with(optimizer=None)
    assert queue.submit(make_frame(0x1000), now=0)
    assert not queue.submit(make_frame(0x1000), now=0)


def test_evicted_path_can_be_rebuilt():
    cache, queue = queue_with(optimizer=None)
    queue.submit(make_frame(0x1000), now=0)
    cache.evict(0x1000)
    assert queue.submit(make_frame(0x1000), now=0)


def test_in_flight_duplicates_rejected():
    cache, queue = queue_with(FrameOptimizer(OptimizerConfig(pipeline_depth=3)))
    assert queue.submit(make_frame(0x1000), now=0)
    assert not queue.submit(make_frame(0x1000), now=0)
    assert queue.totals.frames_optimized == 1


def test_totals_account_reduction():
    cache, queue = queue_with(FrameOptimizer())
    queue.submit(make_frame(0x1000), now=0)
    totals = queue.totals
    assert totals.uops_before == 12
    assert totals.uops_after < totals.uops_before  # dead MOVs removed
    assert 0 < totals.uop_reduction < 1


def test_rejected_submissions_never_frameify(monkeypatch, loop_asm):
    calls = []
    real = frame_module._frameify
    monkeypatch.setattr(
        frame_module, "_frameify", lambda *region: calls.append(region) or real(*region)
    )
    _, _, trace = run_program(loop_asm)
    injected = inject(trace)
    starts = {}
    for index, pc in enumerate(injected.pcs[:-4]):
        starts.setdefault(pc, index)
    first, second, third = list(starts.values())[:3]

    def frame_at(start):
        return region_frame(injected, start, 4)

    cache, queue = queue_with(FrameOptimizer(OptimizerConfig(pipeline_depth=2)))
    assert queue.submit(frame_at(first), now=0)
    assert not queue.submit(frame_at(first), now=0)  # in flight
    assert queue.submit(frame_at(second), now=0)
    assert not queue.submit(frame_at(third), now=0)  # pipeline full
    assert queue.totals.frames_dropped == 1
    queue.drain(now=10**6)
    assert not queue.submit(frame_at(first), now=10**6)  # cached
    assert cache.contains_path(frame_at(first).path_key)
    assert len(calls) == queue.totals.frames_optimized == 2


def test_totals_count_raw_loads_once_per_frame(loop_asm):
    _, _, trace = run_program(loop_asm)
    injected = inject(trace)
    frame = region_frame(injected, 0, 20)
    cache, queue = queue_with(FrameOptimizer())
    queue.submit(frame, now=0)
    loads = sum(u.is_load for u in frame.dyn_uops)
    assert loads > 0
    assert frame.raw_load_count == queue.totals.loads_before == loads
