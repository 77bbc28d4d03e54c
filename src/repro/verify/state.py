"""Architectural state along a program run (State Verifier substrate).

:class:`ArchState` is the one model of the architectural state:
registers, flags and memory.  Trace records advance it (trace records
carry only *changes*, so the true state at a frame boundary is known
only by walking the trace), and so do
:func:`~repro.verify.frame_exec.execute_frame` outcomes.

:class:`MemoryMaps` builds the initial memory map of a frame instance
(first load of each live location, paper §5.1.3).  The final map (last
store to each location) is the overlay of an :class:`ArchState` walked
over the instance's records.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.trace.record import TraceRecord
from repro.uops.uop import ARCH_REGS, UReg
from repro.x86.emulator import ENTRY_ESP, EXIT_ADDRESS
from repro.x86.registers import MASK32, Reg, unpack_flags

#: Registers at program entry: all 0 except ESP.
ENTRY_REGS = tuple(ENTRY_ESP if reg == Reg.ESP else 0 for reg in Reg)


def store_bytes(memory: dict[int, int], address: int, size: int, value: int) -> None:
    """Write a little-endian ``size``-byte ``value`` into a byte map."""
    for i in range(size):
        memory[(address + i) & MASK32] = (value >> (8 * i)) & 0xFF


class ArchState:
    """Architectural registers, flags and memory, advanced by raw trace
    records or by executed frame outcomes.

    The default is the emulator's entry state.  Memory is a byte overlay
    (every store so far) over ``image``, the program's initial memory;
    see :func:`initial_image`.
    """

    __slots__ = ("regs", "flags", "image", "overlay")

    def __init__(self, regs: Sequence[int] = ENTRY_REGS, flags: int = 0,
                 image: dict[int, int] | None = None) -> None:
        self.regs = list(regs)
        self.flags = flags
        self.image = {} if image is None else image
        self.overlay: dict[int, int] = {}

    def read_byte(self, address: int) -> int:
        # Total memory (unwritten bytes read as 0, like x86.memory.Memory),
        # so paper rule 1 cannot fire here; the verifier checks it.
        if address in self.overlay:
            return self.overlay[address]
        return self.image.get(address, 0)

    def live_in_regs(self) -> dict[UReg, int]:
        return dict(zip(ARCH_REGS, self.regs))

    def live_in_flags(self) -> tuple[bool, bool, bool, bool]:
        return unpack_flags(self.flags)

    def apply_record(self, record: TraceRecord) -> None:
        regs = self.regs
        for reg, value in record.reg_writes:
            regs[reg] = value
        if record.flags_after is not None:
            self.flags = record.flags_after
        for mem_op in record.mem_ops:
            if mem_op.is_store:
                store_bytes(self.overlay, mem_op.address, mem_op.size, mem_op.data)

    def apply_outcome(self, outcome) -> None:
        regs = self.regs
        for reg, value in outcome.final_regs.items():
            regs[reg] = value
        self.flags = outcome.final_flags
        for address, size, value in outcome.stores:
            store_bytes(self.overlay, address, size, value)


def initial_image(program) -> dict[int, int]:
    """Byte image of memory at program entry: the program's data and
    the exit address the emulator pushes at :data:`ENTRY_ESP`."""
    image: dict[int, int] = {}
    for address, blob in program.data.items():
        for i, byte in enumerate(blob):
            image[(address + i) & MASK32] = byte
    store_bytes(image, ENTRY_ESP, 4, EXIT_ADDRESS)
    return image


@dataclass
class MemoryMaps:
    """The initial memory map of one frame region (paper §5.1.3)."""

    initial: dict[int, int] = field(default_factory=dict)  # byte addr -> byte

    @classmethod
    def from_records(cls, records: list[TraceRecord]) -> "MemoryMaps":
        """First-loaded bytes not written earlier in the region."""
        maps = cls()
        initial = maps.initial
        written: set[int] = set()
        for record in records:
            for mem_op in record.mem_ops:
                for i in range(mem_op.size):
                    address = (mem_op.address + i) & MASK32
                    if mem_op.is_store:
                        written.add(address)
                    elif address not in written:
                        initial.setdefault(address, (mem_op.data >> (8 * i)) & 0xFF)
        return maps

    def read_initial(self, address: int) -> int | None:
        return self.initial.get(address)
