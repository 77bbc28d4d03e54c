"""Firing-frame rollback: ALL availability state must be restored.

A firing frame is squashed in its entirety (paper §3.4): its register,
flags, and store-buffer effects never happened architecturally.  The
model therefore has to restore ``_reg_ready``, ``_flags_ready``, *and*
``_mem_ready`` after recovery — the last of these was leaked before this
regression suite existed, letting a squashed store's forwarding time
serialize the post-recovery ICache replay of the very same region.
"""

import pytest

from helpers import frame_block
from repro.optimizer.optuop import DefRef, LiveIn, OptUop
from repro.timing import PipelineModel, default_config
from repro.uops import UopOp, UReg

STORE_ADDR = 0xF000
LOAD_ADDR = 0x9000


def firing_block(config):
    """A three-uop frame instance that fires: load -> add -> store."""
    load = OptUop(UopOp.LOAD, slot=0, src_a=LiveIn(UReg.ESI))
    add = OptUop(
        UopOp.ADD, slot=1, src_a=DefRef(0), imm=1, writes_flags=True
    )
    store = OptUop(
        UopOp.STORE,
        slot=2,
        src_a=LiveIn(UReg.ESP),
        src_data=DefRef(1),
        observed_address=STORE_ADDR,
    )
    return frame_block(
        [load, add, store],
        config,
        fires=True,
        addresses=[LOAD_ADDR, None, STORE_ADDR],
    )


class OneBlock:
    def __init__(self, block):
        self.block = block

    def next_block(self, cycle):
        block, self.block = self.block, None
        return block


@pytest.mark.parametrize("scheduling", ["template", "reference"])
def test_firing_frame_restores_all_availability_state(scheduling):
    config = default_config()
    model = PipelineModel(config, scheduling=scheduling)
    # Pre-existing availability state from earlier retired code.
    model._reg_ready = {int(UReg.ESI): 3, int(UReg.EAX): 7}
    model._flags_ready = 5
    model._mem_ready = {STORE_ADDR >> 2: 4, 0x123: 9}
    saved_regs = dict(model._reg_ready)
    saved_flags = model._flags_ready
    saved_mem = dict(model._mem_ready)
    model.simulate(OneBlock(firing_block(config)))
    assert model._reg_ready == saved_regs
    assert model._flags_ready == saved_flags
    assert model._mem_ready == saved_mem


@pytest.mark.parametrize("scheduling", ["template", "reference"])
def test_firing_store_does_not_leak_into_mem_ready(scheduling):
    """Minimized regression for the ``_mem_ready`` leak.

    On a fresh model the squashed store must leave no forwarding entry
    behind; before the fix the words it touched survived recovery.
    """
    config = default_config()
    model = PipelineModel(config, scheduling=scheduling)
    model.simulate(OneBlock(firing_block(config)))
    assert model._mem_ready == {}


@pytest.mark.parametrize("scheduling", ["template", "reference"])
def test_firing_frame_still_accounts_assert_cycles(scheduling):
    config = default_config()
    model = PipelineModel(config, scheduling=scheduling)
    result = model.simulate(OneBlock(firing_block(config)))
    assert result.frames_fired == 1
    assert result.bins["assert"] > 0
    assert result.x86_retired == 0
