"""Golden A/B: template scheduling must be cycle-identical to reference.

The timing model has two uop-scheduling implementations (DESIGN.md §11):
the original object-walking ``reference`` path and the schedule-template
``template`` fast path.  The contract is equality of the *entire*
:class:`~repro.timing.pipeline.SimResult` — cycles, every cycle-
accounting bin, cache/branch side effects — on real workloads across all
front-end configurations, including runs with firing frames (parser's
RPO run fires >100 frames, exercising the rollback path in both modes).
"""

import dataclasses

import pytest

from helpers import frame_block, line_block
from repro.fuzz.config_oracle import run_lockstep
from repro.harness.experiment import CONFIGS
from repro.optimizer.optuop import DefRef, LiveIn, OptUop
from repro.timing import BranchEvent, PipelineModel, default_config
from repro.uops import Uop, UopOp, UReg


class ScriptedFetcher:
    def __init__(self, blocks):
        self.blocks = list(blocks)

    def next_block(self, cycle):
        return self.blocks.pop(0) if self.blocks else None


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
    """The config oracle's lockstep driver: the template model shadows
    the reference on one fetch stream, cycle-equal at every block."""
    reference, template, _, split = run_lockstep(
        matrix.trace(workload), CONFIGS[config_name]
    )
    assert split is None
    assert template == reference


def test_fired_frames_present_in_ab_sample(matrix):
    """The A/B sample must actually exercise firing-frame recovery."""
    assert matrix.run("parser", CONFIGS["RPO"]).sim.frames_fired > 0


def test_template_matches_reference_on_scripted_blocks():
    """Hand-built ICache blocks with loads schedule identically."""
    config = default_config()

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
            out.append(line_block(uops, config, pc=0x1000 + 64 * i))
        return out

    reference = PipelineModel(config, scheduling="reference").simulate(
        ScriptedFetcher(blocks())
    )
    template = PipelineModel(config, scheduling="template").simulate(
        ScriptedFetcher(blocks())
    )
    assert template == reference


# ------------------------------------------------------------ prune paths
#
# The model bounds two tables by pruning them: a functional-unit table
# past 16,384 cycle entries keeps only cycles >= ``cycle``, and the
# store-word table past 65,536 words keeps only stores completing after
# ``cycle``.  Real workloads almost never get there, so these scripted
# streams drive both prunes on purpose, each right after a mispredict has
# moved ``cycle`` in the middle of a fetch chunk: a scheduler that read a
# stale ``cycle`` (or kept writing a table the prune replaced) would
# diverge from the reference here.

FU_PRUNE_AT = 16384
MEM_PRUNE_AT = 1 << 16


def mispredict(n):
    """An indirect jump to a never-seen target: always mispredicted."""
    return BranchEvent(kind="jmpi", pc=0x40000 + 4 * n, target=0x80000 + 4 * n)


def simulate_both(make_blocks, config):
    """(reference model, reference result, template result) of one stream."""
    reference = PipelineModel(config, scheduling="reference")
    reference_result = reference.simulate(ScriptedFetcher(make_blocks(config)))
    template = PipelineModel(config, scheduling="template").simulate(
        ScriptedFetcher(make_blocks(config))
    )
    return reference, reference_result, template


def fu_prune_blocks(config):
    """~16.8k single-ALU issues, each chunk bracketed by two mispredicts.

    The three-uop lead block shifts the 16,385th functional-unit cycle
    entry to the middle of a chunk, after its first mispredict.
    """
    lead = [Uop(UopOp.ADD, dst=UReg.EAX, imm=1) for _ in range(3)]
    blocks = [line_block(lead, config)]
    for k in range(2100):
        uops = [Uop(UopOp.BR, cond=None, target=0)]
        uops += [Uop(UopOp.ADD, dst=UReg(j % 4), imm=1) for j in range(6)]
        uops.append(Uop(UopOp.BR, cond=None, target=0))
        events = {0: mispredict(2 * k), 7: mispredict(2 * k + 1)}
        blocks.append(
            line_block(uops, config, pc=0x2000 + 64 * (k % 4), events=events)
        )
    return blocks


def test_fu_table_prune_after_mid_chunk_mispredict_matches_reference():
    config = dataclasses.replace(default_config(), simple_alus=1)
    reference, result, template = simulate_both(fu_prune_blocks, config)
    issued = sum(len(block.uops) for block in fu_prune_blocks(config))
    assert issued > FU_PRUNE_AT
    assert len(reference._fu_used["simple"]) < FU_PRUNE_AT // 2  # pruned
    assert result.bins["mispred"] > 0
    assert template == result


def mem_prune_blocks(config, then_store):
    """4 KiB stores, each after a mispredict and before a dependent load.

    Every big store records 1,024 words, so the store-word table crosses
    65,536 words about every 64th of them, each time inside a chunk whose
    first uop moved ``cycle``.  The load feeds a second mispredicted
    branch, so its ready time shows.  It reads the big store's words, or
    with ``then_store`` those of a small store issued after the big one
    in the same chunk (which must land in the pruned table).
    """
    blocks = []
    for k in range(140):
        big = Uop(UopOp.STORE, src_a=UReg.ESP, src_data=UReg.EAX, size=4096)
        big.mem_address = 0x100000 + 4096 * k
        uops = [Uop(UopOp.BR, cond=None, target=0), big]
        address = big.mem_address
        if then_store:
            small = Uop(UopOp.STORE, src_a=UReg.EBP, src_data=UReg.EAX)
            small.mem_address = address = 0x900000 + 4 * k
            uops.append(small)
        load = Uop(UopOp.LOAD, dst=UReg.EDI, src_a=UReg.ESI)
        load.mem_address = address
        uops += [load, Uop(UopOp.BR, cond=None, src_a=UReg.EDI, target=0)]
        events = {0: mispredict(2 * k), len(uops) - 1: mispredict(2 * k + 1)}
        blocks.append(
            line_block(uops, config, pc=0x2000 + 64 * (k % 4), events=events)
        )
    return blocks


@pytest.mark.parametrize("then_store", [False, True])
def test_store_table_prune_after_mid_chunk_mispredict_matches_reference(then_store):
    reference, result, template = simulate_both(
        lambda config: mem_prune_blocks(config, then_store), default_config()
    )
    assert len(reference._mem_ready) < MEM_PRUNE_AT // 2  # 140 * 1024 recorded
    assert template == result


def frame_prune_blocks(config):
    """Frame blocks (committing and firing) that drive both prunes.

    Each frame holds seven independent ALU uops, a 4 KiB store and a load
    of the stored words; every fifth instance fires and rolls back.  With
    one simple ALU the ALU uops back up, so the functional-unit table
    grows by about one cycle entry per uop.
    """
    blocks = []
    for k in range(2400):
        address = 0x100000 + 4096 * k
        uops = [
            OptUop(UopOp.ADD, slot=j, src_a=LiveIn(UReg(j % 4)), imm=1)
            for j in range(7)
        ]
        uops.append(
            OptUop(
                UopOp.STORE,
                slot=7,
                src_a=LiveIn(UReg.ESP),
                src_data=LiveIn(UReg.EAX),
                size=4096,
                observed_address=address,
            )
        )
        uops.append(
            OptUop(UopOp.LOAD, slot=8, src_a=DefRef(0), observed_address=address)
        )
        fires = k % 5 == 4
        blocks.append(
            frame_block(uops, config, x86_count=0 if fires else 4, fires=fires)
        )
    return blocks


def test_frame_block_prunes_match_reference():
    config = dataclasses.replace(default_config(), simple_alus=1)
    reference, result, template = simulate_both(frame_prune_blocks, config)
    assert result.frames_fired > 0
    assert len(reference._fu_used["simple"]) < FU_PRUNE_AT // 2
    assert len(reference._mem_ready) <= MEM_PRUNE_AT  # 2400 * 1024 recorded
    assert template == result


def test_unknown_scheduling_mode_rejected():
    with pytest.raises(ValueError):
        PipelineModel(default_config(), scheduling="turbo")
