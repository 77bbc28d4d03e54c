"""Atomic frames (paper §2).

A frame is a single-entry, single-exit, atomic region: all control
dependencies inside it have been converted to assertions, so either every
uop commits or none does.  The frame records the x86 path it embodies
(for sequencer path matching), its uops in frame-ified form, and — after
optimization — the optimization buffer holding the final micro-operations
and live-out bindings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.uops.uop import Uop
from repro.optimizer.buffer import OptimizationBuffer
from repro.optimizer.optuop import OptUop
from repro.optimizer.pipeline import OptimizationResult


@dataclass
class Frame:
    """One atomic frame."""

    start_pc: int
    x86_pcs: list[int]
    end_next_pc: int
    dyn_uops: list[Uop] = field(repr=False, default_factory=list)
    x86_indices: list[int] = field(repr=False, default_factory=list)
    mem_keys: list[tuple[int, int] | None] = field(repr=False, default_factory=list)
    block_starts: list[int] = field(default_factory=lambda: [0])
    buffer: OptimizationBuffer | None = None
    opt_result: OptimizationResult | None = None
    always_fires: bool = False  # degenerate frame (statically false assert)
    commits: int = 0  # dynamic instances that completed
    fires: int = 0  # dynamic instances that aborted
    cooldown: int = 0  # dispatch opportunities to skip after a fire
    #: cached :class:`repro.timing.schedule.FrameSchedule`; valid once the
    #: buffer is final (post-optimization) and for the buffer's lifetime.
    sched_template: object | None = field(default=None, repr=False, compare=False)

    @property
    def proven(self) -> bool:
        """Has this frame earned protection from replacement?"""
        return self.commits >= 4 and self.fires * 4 <= self.commits

    @property
    def x86_count(self) -> int:
        return len(self.x86_pcs)

    @property
    def path_key(self) -> tuple:
        """Identity of the frame: entry point plus embodied path."""
        return (self.start_pc, tuple(self.x86_pcs))

    @property
    def raw_uop_count(self) -> int:
        return len(self.dyn_uops)

    @property
    def uop_count(self) -> int:
        """Micro-operations fetched when this frame is dispatched."""
        if self.buffer is not None:
            return self.buffer.valid_count()
        return len(self.dyn_uops)

    @property
    def load_count(self) -> int:
        if self.buffer is not None:
            return self.buffer.load_count()
        return sum(1 for u in self.dyn_uops if u.is_load)

    def kept_uops(self) -> list[OptUop]:
        """Valid optimized uops in final (position) order."""
        if self.buffer is None:
            raise ValueError("frame has not been remapped/optimized")
        return [u for u in self.buffer.uops if u.valid]

    def kept_mem_uops(self) -> list[OptUop]:
        """Valid memory uops in frame order (for unsafe-store checks)."""
        if self.buffer is None:
            raise ValueError("frame has not been remapped/optimized")
        return [u for u in self.buffer.uops if u.valid and u.is_mem]

    def build_buffer(self) -> OptimizationBuffer:
        """Remap the frame into the optimization buffer (idempotent)."""
        if self.buffer is None:
            self.buffer = OptimizationBuffer(
                self.dyn_uops,
                self.x86_indices,
                self.mem_keys,
                block_starts=self.block_starts,
            )
        return self.buffer

    def describe(self) -> str:
        """Human-readable dump (used by examples and debugging)."""
        header = (
            f"frame @ {self.start_pc:#x}: {self.x86_count} x86 insts, "
            f"{self.uop_count} uops"
        )
        if self.buffer is not None:
            return header + "\n" + self.buffer.dump()
        return header + "\n" + "\n".join(str(u) for u in self.dyn_uops)
