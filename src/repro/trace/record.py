"""Dynamic trace records.

The paper's AMD-provided trace files carried, per retired x86 instruction:
instruction data, register state changes, memory transactions, and
interrupt information.  :class:`TraceRecord` carries the same content for
our synthetic traces; the Micro-Op Injector and State Verifier consume
exactly these fields (paper §5.1.1, §5.1.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.x86.instructions import Instruction


class MemOp(NamedTuple):
    """One memory transaction performed by an x86 instruction.

    A named tuple: capture builds one per load and store, and a tuple is
    built in half the time of a frozen dataclass.  Equality, hashing and
    pickling are by value (a ``MemOp`` also equals the plain tuple of its
    fields).
    """

    is_store: bool
    address: int
    size: int
    data: int

    @property
    def is_load(self) -> bool:
        return not self.is_store

    def overlaps(self, other: "MemOp") -> bool:
        """Byte-range overlap test, used for alias detection."""
        return (
            self.address < other.address + other.size
            and other.address < self.address + self.size
        )


@dataclass(slots=True)
class TraceRecord:
    """Everything the trace knows about one retired x86 instruction.

    ``reg_writes`` holds ``(register number, value)`` pairs: the changed
    registers in register order, then the unchanged ones in written
    order.  A record that writes no register shares the empty tuple.
    """

    pc: int
    instruction: Instruction
    next_pc: int
    reg_writes: tuple[tuple[int, int], ...] = ()
    flags_after: int | None = None  # None when the instruction leaves flags alone
    mem_ops: tuple[MemOp, ...] = ()
    branch_taken: bool | None = None  # only set for conditional branches

    @property
    def is_conditional_branch(self) -> bool:
        return self.instruction.is_conditional

    @property
    def loads(self) -> tuple[MemOp, ...]:
        return tuple(op for op in self.mem_ops if op.is_load)

    @property
    def stores(self) -> tuple[MemOp, ...]:
        return tuple(op for op in self.mem_ops if op.is_store)
