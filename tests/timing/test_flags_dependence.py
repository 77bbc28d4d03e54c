"""Flags-dependence symmetry between Uop, OptUop, and the timing model.

x86 shifts leave EFLAGS unchanged when the masked count is zero, so a
flag-writing SHL/SHR/SAR with a dynamic (or masked-to-zero) count *reads*
the incoming flags — it may have to preserve them.  The frame path
(``OptUop.reads_flags``) always knew this; the ICache path (``Uop``
property and the timing model's inline condition) historically did not,
so the same code serialized differently depending on which cache served
it.  All three now delegate to ``repro.uops.uop.uop_reads_flags``.
"""

import pytest

from helpers import line_block
from repro.optimizer.optuop import LiveIn, from_dyn_uop
from repro.timing import PipelineModel, default_config
from repro.uops import Uop, UopOp, UReg
from repro.uops.uop import uop_reads_flags

from repro.x86.instructions import Cond


def _cases():
    shl_dyn = Uop(
        UopOp.SHL, dst=UReg.EAX, src_a=UReg.EAX, src_b=UReg.ECX,
        writes_flags=True,
    )
    shl_imm = Uop(
        UopOp.SHL, dst=UReg.EAX, src_a=UReg.EAX, imm=3, writes_flags=True
    )
    shl_imm0 = Uop(
        UopOp.SHL, dst=UReg.EAX, src_a=UReg.EAX, imm=32, writes_flags=True
    )  # masked count = 0: flags preserved, so they are read
    sar_dyn = Uop(
        UopOp.SAR, dst=UReg.EBX, src_a=UReg.EBX, src_b=UReg.ECX,
        writes_flags=True,
    )
    br = Uop(UopOp.BR, cond=Cond.Z, target=0x2000)
    add = Uop(UopOp.ADD, dst=UReg.EAX, src_a=UReg.EAX, imm=1, writes_flags=True)
    adc_like = Uop(
        UopOp.ADD, dst=UReg.EAX, src_a=UReg.EAX, imm=1,
        writes_flags=True, preserves_cf=True,
    )
    return [
        (shl_dyn, True),
        (shl_imm, False),
        (shl_imm0, True),
        (sar_dyn, True),
        (br, True),
        (add, False),
        (adc_like, True),
    ]


@pytest.mark.parametrize("uop,expected", _cases())
def test_uop_reads_flags_predicate(uop, expected):
    assert uop.reads_flags is expected
    assert (
        uop_reads_flags(
            uop.op, uop.cond, uop.preserves_cf, uop.writes_flags,
            uop.src_b is not None, uop.imm,
        )
        is expected
    )


@pytest.mark.parametrize("uop,expected", _cases())
def test_optuop_agrees_with_uop(uop, expected):
    opt = from_dyn_uop(uop, slot=0)
    if uop.src_b is not None:
        opt.src_b = LiveIn(uop.src_b)
    assert opt.reads_flags is expected


class _One:
    def __init__(self, block):
        self.block = block

    def next_block(self, cycle):
        block, self.block = self.block, None
        return block


@pytest.mark.parametrize("scheduling", ["template", "reference"])
def test_dynamic_shift_serializes_on_flags(scheduling):
    """A dynamic-count SHL must wait for the in-flight flags producer."""
    config = default_config()

    def run(shift):
        producer = Uop(
            UopOp.MUL, dst=UReg.EDX, src_a=UReg.EDX, imm=3, writes_flags=True
        )
        model = PipelineModel(config, scheduling=scheduling)
        model.simulate(_One(line_block([producer, shift], config)))
        return model._flags_ready  # completion time of the last flags write

    dependent = run(
        Uop(UopOp.SHL, dst=UReg.EAX, src_a=UReg.EAX, src_b=UReg.ECX,
            writes_flags=True)
    )
    independent = run(
        Uop(UopOp.SHL, dst=UReg.EAX, src_a=UReg.EAX, imm=3, writes_flags=True)
    )
    # Dependent: SHL waits for the MUL's flags (depth + mul_latency) and
    # finishes one cycle later.  Independent: SHL issues immediately and
    # its own flags write (depth + 1) is the last in program order.
    assert dependent > independent
    assert dependent - independent == config.mul_latency
