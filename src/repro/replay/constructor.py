"""The frame constructor (paper §2, §5.1.4; mechanism from Patel et al. [13]).

Watches the retired instruction stream, converts *dynamically biased*
branches into assertions, and merges the resulting basic blocks into
atomic frames of 8-256 micro-operations.  A conditional branch is
promoted once it has gone the same direction for ``promotion_threshold``
consecutive executions; indirect jumps are promoted on a stable target.
An unbiased control transfer terminates the frame and remains its exit
branch.  A closed region is handed over as a :class:`Frame` that is
frame-ified only when its body is first read (see :mod:`repro.replay.frame`).

The constructor sees only the in-order retired stream, so the regions it
closes depend on nothing but the stream and its config:
:func:`closed_regions` walks a stream once per config and every rePLay
run over that stream reuses the list.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

from repro.trace.injector import InjectedTrace
from repro.replay.frame import Frame


@dataclass
class _BiasEntry:
    """Consecutive-outcome tracker for one branch site."""

    last_outcome: object = None
    run_length: int = 0

    def observe(self, outcome) -> int:
        """Record an outcome; returns the run length *before* this event."""
        previous_run = self.run_length if outcome == self.last_outcome else 0
        if outcome == self.last_outcome:
            self.run_length += 1
        else:
            self.last_outcome = outcome
            self.run_length = 1
        return previous_run


class BranchBiasTable:
    """Per-site bias trackers for conditional branches and indirect jumps."""

    def __init__(self, promotion_threshold: int = 16) -> None:
        self.promotion_threshold = promotion_threshold
        self._entries: dict[int, _BiasEntry] = {}

    def observe(self, pc: int, outcome) -> bool:
        """Record an outcome; True if the site was already promoted with
        this same outcome (i.e. the event matched the established bias)."""
        entry = self._entries.get(pc)
        if entry is None:
            entry = _BiasEntry()
            self._entries[pc] = entry
        previous_run = entry.observe(outcome)
        return previous_run >= self.promotion_threshold

    def is_promoted(self, pc: int, outcome) -> bool:
        entry = self._entries.get(pc)
        return (
            entry is not None
            and entry.last_outcome == outcome
            and entry.run_length >= self.promotion_threshold
        )


@dataclass
class ConstructorConfig:
    min_uops: int = 8
    max_uops: int = 256
    promotion_threshold: int = 16
    #: Close a frame at a backward taken branch once it holds at least
    #: this many uops: frames then end at loop heads and tile loops
    #: stably (the next frame starts exactly where this one ended)
    #: instead of drifting through iterations at the max-size limit.
    backedge_close_uops: int = 128


class FrameConstructor:
    """Synthesizes atomic frames from the retired instruction stream."""

    def __init__(self, config: ConstructorConfig | None = None) -> None:
        self.config = config or ConstructorConfig()
        self.bias = BranchBiasTable(self.config.promotion_threshold)
        self._start: int | None = None  # stream index of the pending region
        self._pending_uops = 0
        self.frames_discarded = 0

    def retire(self, injected: InjectedTrace, index: int) -> Frame | None:
        """Feed the retired instruction ``injected[index]`` (in stream
        order); returns a frame when one completes."""
        record = injected.records[index]
        offsets = injected.offsets
        uops = offsets[index + 1] - offsets[index]

        # Would this instruction overflow the frame?  Close the current
        # region first (fall-through exit) and start fresh with it.
        if self._pending_uops + uops > self.config.max_uops:
            frame = self._finish(injected, index, record.pc)
            self._append(index, uops)
            if self._ends_region(injected, record):
                leftover = self._finish(injected, index + 1, record.next_pc)
                return frame or leftover
            return frame

        self._append(index, uops)
        if self._ends_region(injected, record):
            return self._finish(injected, index + 1, record.next_pc)
        return None

    # ------------------------------------------------------------ helpers

    def _append(self, index: int, uops: int) -> None:
        if self._start is None:
            self._start = index
        self._pending_uops += uops

    def _ends_region(self, injected: InjectedTrace, record) -> bool:
        """Does this instruction terminate the frame (unbiased control)?"""
        instruction = record.instruction
        if not instruction.is_branch:
            return False
        if instruction.is_conditional:
            # Checked on every retired JCC, not just in the frames the
            # optimization queue keeps (only those are frame-ified).
            assert record.branch_taken is not None
            matched = self.bias.observe(record.pc, record.branch_taken)
            if not matched:
                return True
        elif instruction.is_indirect:
            matched = self.bias.observe(record.pc, record.next_pc)
            if not matched:
                return True
        # Biased (or direct) transfer: normally continue through, but a
        # full-enough frame closes at a backward target so frames align
        # to loop iterations.
        return (
            self._pending_uops >= self.config.backedge_close_uops
            and record.next_pc <= injected.pcs[self._start]
        )

    def _finish(self, injected: InjectedTrace, stop: int,
                end_next_pc: int) -> Frame | None:
        """Close the pending region, up to ``stop``, into a frame (None if
        too small)."""
        start = self._start
        self._start = None
        pending_uops = self._pending_uops
        self._pending_uops = 0
        if start is None or pending_uops < self.config.min_uops:
            self.frames_discarded += start is not None
            return None
        return Frame.from_region(injected, start, stop, end_next_pc)


def closed_regions(
    injected: InjectedTrace, config: ConstructorConfig | None = None
) -> list[tuple[int, int, int, int]]:
    """Every region :meth:`FrameConstructor.retire` closes over a stream.

    Entries are ``(retire index, start, stop, end_next_pc)``: retiring
    ``injected[retire index]`` returns a frame over ``injected[start:stop]``
    exiting to ``end_next_pc``.  The list is built by walking ``retire``
    over the whole stream once per config (keyed by its field values) and
    memoized on the stream, so it is dropped with it.
    """
    config = config or ConstructorConfig()
    key = astuple(config)
    regions = injected.regions.get(key)
    if regions is None:
        constructor = FrameConstructor(config)
        regions = []
        for index in range(len(injected)):
            frame = constructor.retire(injected, index)
            if frame is not None:
                _, start, stop = frame._region
                regions.append((index, start, stop, frame.end_next_pc))
        injected.regions[key] = regions
    return regions
