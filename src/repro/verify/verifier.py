"""The State Verifier (paper §5.1.3).

Executes an optimized frame from the architectural state at its
boundary and checks the paper's three rules: every load is covered by
the initial memory map, the final memory map matches, and the
architectural register state (and flags) match at the frame boundary.
"""

from __future__ import annotations

from repro.trace.record import TraceRecord
from repro.uops.uop import ARCH_REGS
from repro.verify.frame_exec import FrameExecutionError, execute_frame
from repro.verify.state import ArchState, MemoryMaps, store_bytes


class VerificationError(Exception):
    """An optimized frame diverged from the trace."""


class StateVerifier:
    """Frame-boundary equivalence checker."""

    def __init__(self) -> None:
        self.instances_checked = 0

    def verify_frame_instance(
        self,
        frame,
        records: list[TraceRecord],
        state: ArchState,
    ) -> None:
        """Verify one dynamic instance of an optimized frame.

        ``state`` must hold the architectural registers and flags
        *before* the first record; it is left unchanged.  Raises
        :class:`VerificationError` on any mismatch.
        """
        if frame.buffer is None:
            raise VerificationError("frame has no optimization buffer")
        maps = MemoryMaps.from_records(records)
        try:
            outcome = execute_frame(
                frame.buffer,
                state.live_in_regs(),
                state.live_in_flags(),
                maps.read_initial,
            )
        except FrameExecutionError as exc:
            raise VerificationError(f"frame execution failed: {exc}") from exc
        if outcome.fired:
            raise VerificationError(
                f"assertion fired on a path-matching instance "
                f"(slot {outcome.firing_slot})"
            )

        # Rule 3: architectural register state equal at the frame boundary.
        # The walk's overlay is the region's final memory map (rule 2).
        expected = ArchState(state.regs, state.flags)
        for record in records:
            expected.apply_record(record)
        for reg in ARCH_REGS:
            got = outcome.final_regs[reg]
            want = expected.regs[reg]
            if got != want:
                raise VerificationError(
                    f"register {reg.name} mismatch at frame boundary: "
                    f"frame={got:#x} trace={want:#x} (frame @ {frame.start_pc:#x})"
                )
        if outcome.final_flags != expected.flags:
            raise VerificationError(
                f"flags mismatch at frame boundary: frame={outcome.final_flags:#x} "
                f"trace={expected.flags:#x} (frame @ {frame.start_pc:#x})"
            )

        # Rule 2: all memory state affected by the trace is equivalently
        # affected by the frame.
        frame_bytes: dict[int, int] = {}
        for address, size, value in outcome.stores:
            store_bytes(frame_bytes, address, size, value)
        if frame_bytes != expected.overlay:
            missing = {
                a: b
                for a, b in expected.overlay.items()
                if frame_bytes.get(a) != b
            }
            raise VerificationError(
                f"final memory map mismatch (frame @ {frame.start_pc:#x}): "
                f"{len(missing)} differing bytes, e.g. "
                f"{dict(list(missing.items())[:4])}"
            )
        self.instances_checked += 1
