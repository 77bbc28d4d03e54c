"""Trace-cache fill unit (paper §5.3).

Continuously builds trace lines from the retired instruction stream: a
line holds up to three conditional branches (or ends at an indirect
transfer) and a bounded number of uops.  Unlike frames, traces are *not*
atomic — control may leave a trace at any embedded branch — so no
assertion conversion or cross-block optimization is possible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.trace.injector import InjectedTrace


@dataclass
class TraceLine:
    """One trace-cache line: the static path it holds."""

    #: a line never earns protection from same-PC replacement in the
    #: shared :class:`repro.replay.frame_cache.FrameCache` store.
    proven = False

    start_pc: int
    x86_pcs: list[int]
    uop_count: int = 0


class FillUnit:
    """Accumulates retired instructions into trace lines."""

    #: The paper's trace cache: 32-uop lines ending at the third
    #: conditional branch.
    MAX_UOPS = 32
    MAX_BRANCHES = 3

    def __init__(self) -> None:
        self._pending: list[int] = []  # the pending line's PCs
        self._pending_uops = 0
        self._pending_branches = 0

    def retire(self, injected: InjectedTrace, index: int) -> TraceLine | None:
        """Feed the retired instruction ``injected[index]``; returns a
        completed line or None."""
        instruction = injected.records[index].instruction
        offsets = injected.offsets
        uops = offsets[index + 1] - offsets[index]
        if self._pending_uops + uops > self.MAX_UOPS:
            line = self._finish()
            self._append(injected.pcs[index], instruction, uops)
            if self._terminates(instruction):
                return line or self._finish()
            return line
        self._append(injected.pcs[index], instruction, uops)
        if self._terminates(instruction):
            return self._finish()
        return None

    def _append(self, pc: int, instruction, uops: int) -> None:
        self._pending.append(pc)
        self._pending_uops += uops
        if instruction.is_conditional:
            self._pending_branches += 1

    def _terminates(self, instruction) -> bool:
        if instruction.is_indirect:
            return True
        return self._pending_branches >= self.MAX_BRANCHES

    def _finish(self) -> TraceLine | None:
        pending = self._pending
        self._pending = []
        uop_count = self._pending_uops
        self._pending_uops = 0
        self._pending_branches = 0
        if not pending:
            return None
        return TraceLine(start_pc=pending[0], x86_pcs=pending, uop_count=uop_count)
