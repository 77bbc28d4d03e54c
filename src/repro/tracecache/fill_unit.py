"""Trace-cache fill unit (paper §5.3).

Continuously builds trace lines from the retired instruction stream: a
line holds up to three conditional branches (or ends at an indirect
transfer) and a bounded number of uops.  Unlike frames, traces are *not*
atomic — control may leave a trace at any embedded branch — so no
assertion conversion or cross-block optimization is possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.trace.injector import InjectedInstruction


@dataclass
class TraceLine:
    """One trace-cache line."""

    start_pc: int
    x86_pcs: list[int]
    instructions: list[InjectedInstruction] = field(repr=False, default_factory=list)
    uop_count: int = 0

    @property
    def x86_count(self) -> int:
        return len(self.x86_pcs)


@dataclass
class FillUnitConfig:
    """Fill-unit line limits.

    Defaults match the paper's trace cache: 32-uop lines ending at the
    third conditional branch.
    """

    max_uops: int = 32
    max_branches: int = 3


class FillUnit:
    """Accumulates retired instructions into trace lines."""

    def __init__(self, config: FillUnitConfig | None = None) -> None:
        self.config = config or FillUnitConfig()
        self._pending: list[InjectedInstruction] = []
        self._pending_uops = 0
        self._pending_branches = 0
        self.lines_emitted = 0

    def retire(self, instr: InjectedInstruction) -> TraceLine | None:
        """Feed one retired instruction; returns a completed line or None."""
        if self._pending_uops + len(instr.uops) > self.config.max_uops:
            line = self._finish()
            self._append(instr)
            if self._terminates(instr):
                return line or self._finish()
            return line
        self._append(instr)
        if self._terminates(instr):
            return self._finish()
        return None

    def _append(self, instr: InjectedInstruction) -> None:
        self._pending.append(instr)
        self._pending_uops += len(instr.uops)
        if instr.record.instruction.is_conditional:
            self._pending_branches += 1

    def _terminates(self, instr: InjectedInstruction) -> bool:
        if instr.record.instruction.is_indirect:
            return True
        return self._pending_branches >= self.config.max_branches

    def _finish(self) -> TraceLine | None:
        pending = self._pending
        self._pending = []
        self._pending_uops = 0
        self._pending_branches = 0
        if not pending:
            return None
        line = TraceLine(
            start_pc=pending[0].record.pc,
            x86_pcs=[i.record.pc for i in pending],
            instructions=pending,
            uop_count=sum(len(i.uops) for i in pending),
        )
        self.lines_emitted += 1
        return line
