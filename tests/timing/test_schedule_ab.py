"""Golden A/B: template scheduling must be cycle-identical to reference.

The timing model has two uop-scheduling implementations (DESIGN.md §11):
the original object-walking ``reference`` path and the schedule-template
``template`` fast path.  The contract is equality of the *entire*
:class:`~repro.timing.pipeline.SimResult` — cycles, every cycle-
accounting bin, cache/branch side effects — on real workloads across all
front-end configurations, including runs with firing frames (parser's
RPO run fires >100 frames, exercising the rollback path in both modes).
"""

import pytest

from repro.harness.experiment import CONFIGS, run_experiment
from repro.timing import FetchBlock, PipelineModel, default_config
from repro.uops import Uop, UopOp, UReg


class ScriptedFetcher:
    def __init__(self, blocks):
        self.blocks = list(blocks)

    def next_block(self, cycle):
        return self.blocks.pop(0) if self.blocks else None


def icache_block(uops, pc=0x1000):
    return FetchBlock(
        source="icache",
        uops=uops,
        addresses=[u.mem_address for u in uops],
        x86_count=len(uops),
        pc=pc,
        byte_start=pc,
        byte_end=pc + 4 * len(uops),
    )


#: (workload, config) cells: every fetch source (icache/tcache/frame),
#: optimized and unoptimized frames, and firing-frame recovery.
AB_CELLS = [
    ("crafty", "IC"),
    ("crafty", "TC"),
    ("crafty", "RPO"),
    ("excel", "RP"),
    ("excel", "RPO"),  # fires several frames
    ("parser", "RPO"),  # fires >100 frames
]


@pytest.mark.parametrize("workload,config_name", AB_CELLS)
def test_template_matches_reference_on_workload(matrix, workload, config_name):
    trace = matrix.trace(workload)
    config = CONFIGS[config_name]
    reference = run_experiment(trace, config, scheduling="reference")
    template = run_experiment(trace, config, scheduling="template")
    assert template.sim == reference.sim


def test_fired_frames_present_in_ab_sample(matrix):
    """The A/B sample must actually exercise firing-frame recovery."""
    assert matrix.run("parser", CONFIGS["RPO"]).sim.frames_fired > 0


def test_template_matches_reference_on_scripted_blocks():
    """Blocks without precomputed schedules derive them on the fly."""

    def blocks():
        out = []
        for i in range(30):
            uops = [
                Uop(UopOp.ADD, dst=UReg(j % 4), src_a=UReg(j % 4), imm=1)
                for j in range(6)
            ]
            load = Uop(UopOp.LOAD, dst=UReg.EDI, src_a=UReg.ESI)
            load.mem_address = 0x8000 + 64 * i
            uops.append(load)
            out.append(icache_block(uops, pc=0x1000 + 64 * i))
        return out

    config = default_config()
    reference = PipelineModel(config, scheduling="reference").simulate(
        ScriptedFetcher(blocks())
    )
    template = PipelineModel(config, scheduling="template").simulate(
        ScriptedFetcher(blocks())
    )
    assert template == reference


def test_unknown_scheduling_mode_rejected():
    with pytest.raises(ValueError):
        PipelineModel(default_config(), scheduling="turbo")
