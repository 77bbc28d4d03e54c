"""Pass pipeline: ordering, fixpoint, ablation flags, and Figure 2."""

import pytest

from helpers import (
    OPTIMIZER_OUTPUT_DIGEST,
    WORKLOAD_OUTPUT_DIGEST,
    buffer_from_uops,
    output_digest,
    remap,
    variant_outputs,
)
from repro.fuzz.oracle import _construct_frames
from repro.harness.fig2 import build_figure2_frame, optimize_at_scopes
from repro.optimizer import FrameOptimizer, OptimizerConfig
from repro.replay.constructor import ConstructorConfig
from repro.trace.injector import inject_once
from repro.uops import Uop, UopOp, UReg
from repro.workloads import all_workloads


def test_fixpoint_cascade_cp_then_ra_then_dce():
    # RA exposes a copy; CP folds a constant; DCE sweeps — requires the
    # loop over passes ("synergistic actions", paper §6.4).
    uops = [
        Uop(UopOp.LIMM, dst=UReg.EAX, imm=8),
        Uop(UopOp.MOV, dst=UReg.EBX, src_a=UReg.EAX),
        Uop(UopOp.ADD, dst=UReg.ECX, src_a=UReg.EBX, imm=2, writes_flags=True),
        Uop(UopOp.MOV, dst=UReg.EAX, src_a=UReg.ECX),
    ]
    buf = buffer_from_uops(uops)
    result = FrameOptimizer().optimize(buf)
    # The LIMM's value folds into every consumer; CP turns the copy into
    # a duplicate LIMM that CSE merges back into slot 0.  Only live-out
    # defs survive (EAX/EBX/ECX, the ADD also carrying live-out flags).
    assert result.uops_after == 3
    assert not buf.uops[1].valid
    assert buf.uops[3].op is UopOp.LIMM and buf.uops[3].imm == 10
    assert result.stats.iterations >= 2


def test_disabled_pass_not_run():
    config = OptimizerConfig().disabled("sf")
    assert not config.enable_sf
    optimizer = FrameOptimizer(config)
    names = [p.name for p in optimizer._passes]
    assert "sf" not in names and "dce" in names


@pytest.mark.parametrize("name", ["asst", "cp", "cse", "nop", "ra", "sf"])
def test_each_ablation_flag(name):
    config = OptimizerConfig().disabled(name)
    flags = [
        config.enable_asst,
        config.enable_cp,
        config.enable_cse,
        config.enable_nop,
        config.enable_ra,
        config.enable_sf,
    ]
    assert flags.count(False) == 1


def test_dce_always_enabled():
    config = OptimizerConfig(
        enable_nop=False,
        enable_cp=False,
        enable_cse=False,
        enable_ra=False,
        enable_sf=False,
        enable_asst=False,
    )
    optimizer = FrameOptimizer(config)
    assert [p.name for p in optimizer._passes] == ["dce"]


def test_figure2_frame_level_matches_paper():
    """The paper's headline Figure 2 claim: 17 -> 10 uops, 5 -> 3 loads."""
    results = {r.scope: r for r in optimize_at_scopes()}
    assert results["unoptimized"].uops == 17
    assert results["unoptimized"].loads == 5
    assert results["frame"].uops == 10
    assert results["frame"].loads == 3


def test_figure2_scope_ordering():
    """More scope can never hurt: frame <= inter <= block <= unoptimized."""
    results = {r.scope: r for r in optimize_at_scopes()}
    assert (
        results["frame"].uops
        <= results["inter"].uops
        <= results["block"].uops
        <= results["unoptimized"].uops
    )


def test_figure2_block_scope_matches_paper_intra_block():
    """Paper's intra-block column keeps 13 of 17 micro-operations."""
    results = {r.scope: r for r in optimize_at_scopes()}
    assert results["block"].uops == 13
    assert results["block"].loads == 5  # no cross-block load removal


def test_reduction_property():
    frame = build_figure2_frame()
    buf = frame.build_buffer()
    result = FrameOptimizer().optimize(buf)
    assert result.uops_removed == 7
    assert result.loads_removed == 2
    assert abs(result.reduction - 7 / 17) < 1e-9


def test_optimizer_output_is_pinned(oracle_frames):
    # Every fuzz frame of programs 0-49 (seed 1) optimized under all 11
    # oracle variants.  The campaign digest hashes only counts, so it can
    # miss a changed optimized frame; this hash covers the uops, unsafe
    # guards and every live-out binding.
    assert len(oracle_frames) == 178
    outputs = variant_outputs(oracle_frames, remap)
    assert output_digest(outputs) == OPTIMIZER_OUTPUT_DIGEST


def test_optimizer_output_on_workload_frames_is_pinned(matrix):
    # The fuzz frames never hold NOP, JMP, CALL/RET or IDIV; the
    # workloads' frames do, so this pin covers NOP removal and CP's
    # JMPI -> JMP rewrite on the frames behind every paper figure.
    frames = []
    for workload in all_workloads():
        injected = inject_once(matrix.trace(workload.name))
        frames.extend(_construct_frames(injected, ConstructorConfig()))
    assert len(frames) == 101
    ops = [uop.op for frame in frames for uop in frame.dyn_uops]
    assert (ops.count(UopOp.JMP), ops.count(UopOp.JMPI)) == (51, 29)
    outputs = variant_outputs(frames, remap)
    assert output_digest(outputs) == WORKLOAD_OUTPUT_DIGEST
