"""Dead-code elimination (paper §3.1).

Removes uops whose value has no consumers and is not bound to any
live-out register, and whose flag output (if any) is likewise dead.  All
other optimizations "leave dead code" behind (paper §6.4) and rely on
this pass, so — like the paper's ablation study — it is enabled in every
configuration.

Stores, assertions, and control uops are never dead: stores have memory
side effects, assertions guard the frame's speculation, and the frame's
exit branch defines the successor.
"""

from __future__ import annotations

from repro.uops.uop import UopOp
from repro.optimizer.buffer import OptimizationBuffer
from repro.optimizer.passes.base import OptContext, Pass

_SIDE_EFFECT_OPS = frozenset(
    {UopOp.STORE, UopOp.ASSERT, UopOp.ASSERT_CMP, UopOp.BR, UopOp.JMP, UopOp.JMPI}
)


class DeadCodeElimination(Pass):
    name = "dce"

    def run(self, buf: OptimizationBuffer, ctx: OptContext) -> int:
        # Consumers always sit after their producers, so one backward
        # sweep removes every consumer before it reaches the producer: a
        # second sweep would find nothing more.
        changes = 0
        protected = ctx.protected_values(buf)
        flags_protected = ctx.protected_flags(buf)
        for uop in reversed(buf.uops):
            if uop.op in _SIDE_EFFECT_OPS or not uop.valid:
                continue
            slot = uop.slot
            if buf.value_dead(slot, protected) and buf.flags_dead(
                slot, flags_protected
            ):
                buf.invalidate(slot)
                changes += 1
        ctx.stats.uops_removed += changes
        return changes
