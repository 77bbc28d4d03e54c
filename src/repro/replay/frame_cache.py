"""The frame cache (paper §2, §5.3): 16k micro-operations, LRU-managed.

Frames are indexed by their entry PC; a newly constructed frame for the
same entry replaces the old one (the path may have changed).  Capacity is
accounted in *stored* uops — the paper notes optimization increases frame
cache efficiency because optimized frames occupy fewer slots (§6.1).

The trace-cache baseline stores its :class:`repro.tracecache.TraceLine`
lines here too: a line has the same ``start_pc`` and ``uop_count``, and
is never ``proven``, so a newer line for the same PC always replaces it.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.replay.frame import Frame


class FrameCache:
    """LRU frame (or trace-line) store, capacity-bounded in micro-operations."""

    def __init__(self, capacity_uops: int = 16 * 1024) -> None:
        self.capacity_uops = capacity_uops
        self._frames: OrderedDict[int, Frame] = OrderedDict()
        self._stored_uops = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.displacements = 0  # same-PC replacement by a newer frame
        self.rejections = 0  # insert refused (proven incumbent kept)

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def stored_uops(self) -> int:
        return self._stored_uops

    def contains(self, pc: int) -> bool:
        """Presence probe that does not disturb LRU or hit statistics."""
        return pc in self._frames

    def frames(self) -> list[Frame]:
        """Resident frames in LRU order (oldest first), for reporting.

        A snapshot list — iterating it never disturbs LRU state or hit
        statistics (the characterization report walks it post-run).
        """
        return list(self._frames.values())

    def lookup(self, pc: int) -> Frame | None:
        frame = self._frames.get(pc)
        if frame is None:
            self.misses += 1
            return None
        self._frames.move_to_end(pc)
        self.hits += 1
        return frame

    def contains_path(self, path_key: tuple) -> bool:
        frame = self._frames.get(path_key[0])
        return frame is not None and frame.path_key == path_key

    def insert(self, frame: Frame) -> bool:
        """Insert (or replace) the frame for its entry PC, evicting LRU.

        A frame with a proven commit record is not displaced by a
        same-or-smaller different-path newcomer for the same entry PC:
        continuous construction would otherwise thrash hot loop heads
        whose frame boundaries drift between passes.  A strictly larger
        newcomer still wins, so frames can grow as branch bias matures.
        Returns False when rejected.  ``path_key`` and ``x86_count``
        are read only when the incumbent is ``proven``.
        """
        existing = self._frames.get(frame.start_pc)
        if (
            existing is not None
            and existing.proven
            and existing.path_key != frame.path_key
            and frame.x86_count <= existing.x86_count
        ):
            self.rejections += 1
            return False
        existing = self._frames.pop(frame.start_pc, None)
        if existing is not None:
            self._stored_uops -= existing.uop_count
            self.displacements += 1
        self._frames[frame.start_pc] = frame
        self._stored_uops += frame.uop_count
        while self._stored_uops > self.capacity_uops and len(self._frames) > 1:
            _, evicted = self._frames.popitem(last=False)
            self._stored_uops -= evicted.uop_count
            self.evictions += 1
        return True

    def evict(self, pc: int) -> None:
        """Explicit eviction (used for frames that keep firing)."""
        frame = self._frames.pop(pc, None)
        if frame is not None:
            self._stored_uops -= frame.uop_count
            self.evictions += 1
