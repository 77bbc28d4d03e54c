"""Architectural-state tracking along a trace (State Verifier substrate).

The verifier follows the trace's register/flag effects so that, at any
frame boundary, the full architectural state is known (trace records only
carry *changes*).  It also builds the paper's two memory maps for a frame
instance: the initial map (first load of each live location) and the
final map (last store to each location) — §5.1.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.trace.record import TraceRecord
from repro.uops.uop import ARCH_REGS, UReg
from repro.x86.registers import Reg


class ArchTracker:
    """Running architectural register + flag state along a trace."""

    def __init__(self, initial_regs: dict[Reg, int] | None = None, flags: int = 0):
        self.regs: dict[int, int] = {int(r): 0 for r in Reg}
        if initial_regs:
            for reg, value in initial_regs.items():
                self.regs[int(reg)] = value
        self.flags = flags

    def apply(self, record: TraceRecord) -> None:
        for reg, value in record.reg_writes.items():
            self.regs[int(reg)] = value
        if record.flags_after is not None:
            self.flags = record.flags_after

    def live_in_regs(self) -> dict[UReg, int]:
        """Snapshot in the uop register space (architectural regs only)."""
        return {reg: self.regs[reg] for reg in ARCH_REGS}

    def live_in_flags(self) -> tuple[bool, bool, bool, bool]:
        from repro.x86.registers import Flag

        word = self.flags
        return (
            bool(word & (1 << Flag.CF)),
            bool(word & (1 << Flag.ZF)),
            bool(word & (1 << Flag.SF)),
            bool(word & (1 << Flag.OF)),
        )


@dataclass
class MemoryMaps:
    """Initial and final memory maps for one frame region (paper §5.1.3)."""

    initial: dict[int, int] = field(default_factory=dict)  # byte addr -> byte
    final: dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_records(cls, records: list[TraceRecord]) -> "MemoryMaps":
        maps = cls()
        written: set[int] = set()
        for record in records:
            for mem_op in record.mem_ops:
                for i in range(mem_op.size):
                    address = (mem_op.address + i) & 0xFFFFFFFF
                    byte = (mem_op.data >> (8 * i)) & 0xFF
                    if mem_op.is_store:
                        written.add(address)
                        maps.final[address] = byte
                    elif address not in written and address not in maps.initial:
                        maps.initial[address] = byte
        return maps

    def read_initial(self, address: int) -> int | None:
        return self.initial.get(address)
