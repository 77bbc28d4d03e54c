"""Trace-cache baseline (paper §5.3): fill unit and sequencer.

Lines live in the frame cache's store, :class:`repro.replay.FrameCache`.
"""

from repro.tracecache.fill_unit import FillUnit, TraceLine
from repro.tracecache.sequencer import TraceCacheSequencer

__all__ = [
    "FillUnit",
    "TraceCacheSequencer",
    "TraceLine",
]
