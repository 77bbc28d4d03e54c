"""Value-assertion optimization (paper §3.4, §6.4 "no ASST").

Fuses the ubiquitous x86 idiom of a flag-generating compare (CMP/TEST —
a SUB/AND uop with no live value destination) followed by an assertion
into a single ASSERT_CMP micro-operation.  The fused uop recomputes the
compare internally, so it still produces the compare's flag word when the
flags are architecturally live at frame exit.
"""

from __future__ import annotations

from repro.uops.uop import UopOp
from repro.optimizer.buffer import OptimizationBuffer
from repro.optimizer.passes.base import OptContext, Pass

_FUSABLE = frozenset({UopOp.SUB, UopOp.AND})
_ASSERT = UopOp.ASSERT  # a global: see ``repro.uops.uop.UopOp``


class ValueAssertion(Pass):
    name = "asst"

    def run(self, buf: OptimizationBuffer, ctx: OptContext) -> int:
        changes = 0
        for assertion in buf.uops:
            if assertion.op is not _ASSERT or not assertion.valid:
                continue
            slot = assertion.slot
            producer_slot = assertion.flags_src
            if producer_slot is None:
                continue
            producer = buf.uops[producer_slot]
            if not producer.valid or producer.op not in _FUSABLE:
                continue
            if producer.preserves_cf:
                continue  # INC/DEC-style: flag output depends on incoming CF
            if not ctx.can_fold(buf, producer_slot, slot):
                continue
            # The compare's value must be dead (CMP/TEST produce none; an
            # ALU op whose result is still used cannot be absorbed).
            if not ctx.value_dead(buf, producer_slot):
                continue
            # Its flag output may be consumed only by this assertion (the
            # fused uop will reproduce the flag word for later consumers
            # via the live-out rebinding below).
            if buf.flags_children[producer_slot] != {slot}:
                continue
            # Fuse.
            assertion.op = UopOp.ASSERT_CMP
            assertion.cmp_kind = producer.op
            buf.rewrite_operand(slot, "src_a", producer.src_a)
            buf.rewrite_operand(slot, "src_b", producer.src_b)
            assertion.imm = producer.imm
            assertion.writes_flags = producer.writes_flags
            # The assertion no longer reads a flags def.
            buf.flags_children[producer_slot].discard(slot)
            assertion.flags_src = None
            if assertion.writes_flags:
                buf.replace_flags_uses(producer_slot, slot)
                producer.writes_flags = False
            buf.invalidate(producer_slot)
            changes += 1
        return changes
