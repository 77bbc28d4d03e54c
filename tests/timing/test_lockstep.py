"""Lockstep simulation: shadow models on one fetch stream.

``PipelineModel.simulate(fetcher, shadows)`` hands the lead model's
cycle to the fetcher and runs each block on the lead and on every
shadow.  A shadow must finish with the result of its own solo run, and
no model may change a block the models share.
"""

import dataclasses
from dataclasses import astuple

import pytest

from repro.fuzz.config_oracle import widen_config
from repro.harness.experiment import CONFIGS, make_sequencer
from repro.timing import PipelineModel
from repro.trace.injector import inject_once

#: every front end on crafty, plus the RPO runs that fire frames.
CELLS = [
    ("crafty", "IC"),
    ("crafty", "TC"),
    ("crafty", "RP"),
    ("crafty", "RPO"),
    ("parser", "RPO"),
    ("excel", "RPO"),
]


def snapshot(block):
    """A block's fields (as objects) and the contents of its window."""
    fields = tuple(getattr(block, f.name) for f in dataclasses.fields(block))
    fields += (getattr(block.frame, "buffer", None),)
    lo, hi = block.lo, block.hi
    sched = block.sched.sched if block.source == "frame" else block.sched
    events = block.branch_events
    contents = (
        tuple(block.uops[lo:hi]),
        tuple(block.addresses[lo:hi]),
        tuple(sched[lo:hi]),
        tuple((k, astuple(events[k])) for k in range(lo, hi) if k in events),
        tuple(map(astuple, block.train_events)),
    )
    return fields, contents


class Recorder:
    """A sequencer that keeps each block it hands out, with a snapshot."""

    def __init__(self, sequencer):
        self.sequencer = sequencer
        self.handed = []

    def next_block(self, cycle):
        block = self.sequencer.next_block(cycle)
        if block is not None:
            self.handed.append((block, snapshot(block)))
        return block


def unchanged(block, before) -> bool:
    fields, contents = snapshot(block)
    return (
        all(now is then for now, then in zip(fields, before[0]))
        and contents == before[1]
    )


@pytest.mark.parametrize("workload,config_name", CELLS)
def test_each_shadow_finishes_with_its_solo_result(matrix, workload, config_name):
    config = CONFIGS[config_name]
    injected = inject_once(matrix.trace(workload))
    experiments = [config]
    # The RPO sequencer reads the cycle (its optimization queue models
    # latency), so there only a cycle-equal model can follow the lead.
    if config_name != "RPO":
        wide = widen_config(config.processor)
        experiments.append(dataclasses.replace(config, processor=wide))
    shadows = [PipelineModel(experiment.processor) for experiment in experiments]
    lead = PipelineModel(config.processor, scheduling="reference")
    fetcher = Recorder(make_sequencer(injected, config))

    assert lead.simulate(fetcher, shadows) is lead.result
    for experiment, shadow in zip(experiments, shadows):
        solo = PipelineModel(experiment.processor)
        assert shadow.result == solo.simulate(make_sequencer(injected, experiment))
    assert lead.result == shadows[0].result
    assert fetcher.handed
    assert all(unchanged(block, before) for block, before in fetcher.handed)

