"""NOP removal (paper §6.4, "no NOP").

Removes NOP uops and unconditional direct jumps within the frame: a frame
embodies a single control path, so intra-frame direct jumps carry no
information — the sequencer already knows the frame's successor.
"""

from __future__ import annotations

from repro.uops.uop import UopOp
from repro.optimizer.buffer import OptimizationBuffer
from repro.optimizer.passes.base import OptContext, Pass

_REMOVABLE = frozenset({UopOp.NOP, UopOp.JMP})


class NopRemoval(Pass):
    name = "nop"

    def run(self, buf: OptimizationBuffer, ctx: OptContext) -> int:
        changes = 0
        for uop in buf.uops:
            if uop.op in _REMOVABLE and uop.valid:
                buf.invalidate(uop.slot)
                changes += 1
        return changes
