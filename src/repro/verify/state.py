"""Architectural-state tracking along a trace (State Verifier substrate).

The verifier follows the trace's register/flag effects so that, at any
frame boundary, the full architectural state is known (trace records only
carry *changes*).  It also builds the paper's two memory maps for a frame
instance: the initial map (first load of each live location) and the
final map (last store to each location) — §5.1.3.

:class:`FrameMachine` is the executable counterpart: full state,
memory included, advanced by trace records or by
:func:`~repro.verify.frame_exec.execute_frame` outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.trace.record import TraceRecord
from repro.uops.uop import ARCH_REGS, UReg
from repro.x86.emulator import EXIT_ADDRESS
from repro.x86.registers import MASK32, Reg, unpack_flags


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
        return unpack_flags(self.flags)


class FrameMachine:
    """Architectural registers, flags and memory, advanced by raw trace
    records or by executed frame outcomes.

    Memory is a byte overlay (every store so far) over the program's
    initial image; see :func:`initial_image`.
    """

    def __init__(self, initial_regs: tuple[int, ...], initial_flags: int,
                 initial_image: dict[int, int]) -> None:
        self.regs = list(initial_regs)
        self.flags = initial_flags
        self._image = initial_image
        self.overlay: dict[int, int] = {}

    def read_byte(self, address: int) -> int:
        # Total memory (unwritten bytes read as 0, like x86.memory.Memory),
        # so paper rule 1 cannot fire here; the verifier checks it.
        if address in self.overlay:
            return self.overlay[address]
        return self._image.get(address, 0)

    def live_in_regs(self) -> dict[UReg, int]:
        return dict(zip(ARCH_REGS, self.regs))

    def live_in_flags(self) -> tuple[bool, bool, bool, bool]:
        return unpack_flags(self.flags)

    def apply_record(self, record: TraceRecord) -> None:
        for reg, value in record.reg_writes.items():
            self.regs[int(reg)] = value
        if record.flags_after is not None:
            self.flags = record.flags_after
        for mem_op in record.mem_ops:
            if mem_op.is_store:
                for i in range(mem_op.size):
                    address = (mem_op.address + i) & MASK32
                    self.overlay[address] = (mem_op.data >> (8 * i)) & 0xFF

    def apply_outcome(self, outcome) -> None:
        for reg, value in outcome.final_regs.items():
            self.regs[int(reg)] = value
        self.flags = outcome.final_flags
        for address, size, value in outcome.stores:
            for i in range(size):
                self.overlay[(address + i) & MASK32] = (value >> (8 * i)) & 0xFF


def initial_image(program, emulator) -> dict[int, int]:
    """Byte image of memory at program start (data + pushed exit address).

    ``emulator`` is a fresh :class:`~repro.x86.emulator.Emulator` for
    ``program``: its ESP points at the pushed exit address.
    """
    image: dict[int, int] = {}
    for address, blob in program.data.items():
        for i, byte in enumerate(blob):
            image[(address + i) & MASK32] = byte
    esp = emulator.regs[Reg.ESP]
    for i in range(4):
        image[(esp + i) & MASK32] = (EXIT_ADDRESS >> (8 * i)) & 0xFF
    return image


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
