"""Hardware-primitive cost model for the optimizer datapath (paper §4).

The paper argues a hardware optimizer is feasible because optimization
algorithms decompose into three classes of cheap primitives:

1. dataflow-graph traversal — fetch a parent (trivial: the physical
   source register number *is* the producer's buffer index) or iterate
   children (the Dependency List structure);
2. field extraction / bit manipulation through a small ALU with a port
   into the optimization memory;
3. adding/removing instructions in the optimization buffer (removal is
   marking invalid + dependency-list cleanup; insertion is rarer, and
   memory ordering forbids inserting new loads/stores).

This module wraps an :class:`~repro.optimizer.buffer.OptimizationBuffer`
and counts primitive operations, so the per-frame optimization *work* can
be expressed in datapath operations and checked against the paper's
modeled latency of 10 cycles per incoming uop (§5.1.4).  The counters are
observability: passes run unchanged; the instrumented buffer interposes
on the operations that correspond to datapath primitives.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.optimizer.buffer import OptimizationBuffer
from repro.optimizer.optuop import DefRef, Operand


@dataclass
class PrimitiveCounts:
    """Datapath primitive-operation tallies for one frame."""

    parent_lookups: int = 0  # Parent Logic reads
    child_iterations: int = 0  # Next Child Logic steps
    field_operations: int = 0  # optimization-datapath ALU ops
    removals: int = 0  # invalidations
    insertions: int = 0  # spare-slot insertions (rare by design)

    @property
    def total(self) -> int:
        return (
            self.parent_lookups
            + self.child_iterations
            + self.field_operations
            + self.removals
            + self.insertions
        )

    def cycles(self, ops_per_cycle: int = 1) -> int:
        """Datapath cycles at a given primitive issue rate."""
        return -(-self.total // ops_per_cycle)


class InstrumentedBuffer(OptimizationBuffer):
    """An optimization buffer that counts datapath primitives.

    Drop-in replacement: build it from the same inputs as
    :class:`OptimizationBuffer` (or via :func:`instrument`) and run any
    pass pipeline over it; read ``counts`` afterwards.
    """

    def __init__(self, *args, **kwargs) -> None:
        self.counts = PrimitiveCounts()
        self._counting = False
        super().__init__(*args, **kwargs)
        self._counting = True  # construction itself is the Remapper's job

    # -- traversal primitives ------------------------------------------

    def parent(self, operand: Operand):
        if self._counting and isinstance(operand, DefRef):
            self.counts.parent_lookups += 1
        return super().parent(operand)

    def children_of(self, slot: int):
        children = super().children_of(slot)
        if self._counting:
            self.counts.child_iterations += max(1, len(children))
        return children

    # -- field manipulation primitives ---------------------------------

    def rewrite_operand(self, slot: int, fld: str, new) -> None:
        if self._counting:
            self.counts.field_operations += 1
        super().rewrite_operand(slot, fld, new)

    def replace_all_uses(self, slot: int, new) -> int:
        count = super().replace_all_uses(slot, new)
        if self._counting:
            self.counts.field_operations += count
        return count

    def replace_flags_uses(self, slot: int, new_slot) -> int:
        count = super().replace_flags_uses(slot, new_slot)
        if self._counting:
            self.counts.field_operations += count
        return count

    # -- add/remove primitives ------------------------------------------

    def invalidate(self, slot: int) -> None:
        was_valid = self.uops[slot].valid
        super().invalidate(slot)
        if self._counting and was_valid:
            self.counts.removals += 1


def instrument(frame) -> InstrumentedBuffer:
    """Rebuild a frame's buffer as an instrumented one (for analysis)."""
    buffer = InstrumentedBuffer(
        frame.dyn_uops,
        frame.x86_indices,
        frame.mem_keys,
        block_starts=frame.block_starts,
    )
    frame.buffer = buffer
    return buffer


def check_latency_budget(
    counts: PrimitiveCounts, uops_before: int, cycles_per_uop: int = 10,
    ops_per_cycle: int = 2,
) -> bool:
    """Does the measured primitive work fit the paper's latency model?

    The paper models 10 cycles per incoming uop (§5.1.4); with a modest
    datapath issuing ``ops_per_cycle`` primitives per cycle, the work the
    software optimizer actually performed must fit inside that budget for
    the abstraction to be honest.
    """
    budget = cycles_per_uop * uops_before
    return counts.cycles(ops_per_cycle) <= budget
