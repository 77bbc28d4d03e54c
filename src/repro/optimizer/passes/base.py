"""Pass framework for the rePLay optimization engine.

Each pass is a callable object over the optimization buffer; it returns
the number of changes it made so the pipeline can iterate to a fixed
point.  The :class:`OptContext` carries the optimization scope (frame vs
basic-block, Figure 9), the speculation switch (unsafe-store memory
optimizations, §3.4), and accumulating statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.optimizer.buffer import OptimizationBuffer
from repro.optimizer.optuop import DefRef, Operand


@dataclass
class PassStats:
    """Counters accumulated across one frame's optimization."""

    changes_by_pass: dict[str, int] = field(default_factory=dict)
    loads_removed: int = 0
    loads_removed_speculatively: int = 0
    stores_marked_unsafe: int = 0
    uops_removed: int = 0
    iterations: int = 0

    def record(self, pass_name: str, changes: int) -> None:
        if changes:
            self.changes_by_pass[pass_name] = (
                self.changes_by_pass.get(pass_name, 0) + changes
            )


@dataclass
class OptContext:
    """Per-frame optimization context shared by all passes.

    ``metrics`` is an optional :class:`repro.metrics.MetricsRegistry`;
    when attached, :meth:`Pass.__call__` counts each pass's changes into
    it (``optimizer.pass.<name>.changes``) as they happen.
    """

    scope: str = "frame"  # 'frame' | 'inter' | 'block'
    speculation: bool = True
    stats: PassStats = field(default_factory=PassStats)
    metrics: object | None = None

    def can_fold(
        self, buf: OptimizationBuffer, through_slot: int, consumer_slot: int
    ) -> bool:
        """May an optimization exploit ``through_slot``'s definition at
        ``consumer_slot``?  Block scope restricts this to one basic block."""
        if self.scope != "block":
            return True
        return buf.block_of(through_slot) == buf.block_of(consumer_slot)

    def protected_values(self, buf: OptimizationBuffer) -> set[int]:
        return buf.value_protected_slots(self.scope)

    def protected_flags(self, buf: OptimizationBuffer) -> set[int]:
        return buf.flags_protected_slots(self.scope)

    def flags_dead(self, buf: OptimizationBuffer, slot: int) -> bool:
        return buf.flags_dead(slot, self.protected_flags(buf))

    def value_dead(self, buf: OptimizationBuffer, slot: int) -> bool:
        if buf.uops[slot].has_value_dst and buf.value_children[slot]:
            return False  # consumed: no need to build the protected set
        return buf.value_dead(slot, self.protected_values(buf))


class Pass:
    """Base class: subclasses implement :meth:`run` and set ``name``."""

    name = "pass"

    def __call__(self, buf: OptimizationBuffer, ctx: OptContext) -> int:
        changes = self.run(buf, ctx)
        ctx.stats.record(self.name, changes)
        if changes and ctx.metrics is not None:
            ctx.metrics.counter(f"optimizer.pass.{self.name}.changes").inc(changes)
        return changes

    def run(self, buf: OptimizationBuffer, ctx: OptContext) -> int:
        raise NotImplementedError


def operand_slot(operand: Operand | None) -> int | None:
    """Slot number of a DefRef operand, else None."""
    if isinstance(operand, DefRef):
        return operand.slot
    return None
