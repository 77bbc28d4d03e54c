"""Trace-cache sequencer (the paper's TC baseline configuration).

On a trace-cache hit, the line streams at full fetch width across its
embedded branches; because traces are not atomic, a path divergence
simply truncates the fetch at the diverging instruction (early exit) —
no recovery is needed, but no cross-block optimization is possible
either.
"""

from __future__ import annotations

from repro.trace.injector import InjectedTrace
from repro.replay.fetch_groups import build_icache_block
from repro.replay.frame_cache import FrameCache
from repro.replay.sequencer import ICacheSequencer
from repro.timing.config import ProcessorConfig
from repro.timing.pipeline import FetchBlock
from repro.tracecache.fill_unit import FillUnit, TraceLine


class TraceCacheSequencer(ICacheSequencer):
    """Fetch from the trace cache when possible, else the ICache."""

    def __init__(self, injected: InjectedTrace, config: ProcessorConfig) -> None:
        super().__init__(injected, config)
        self.fill_unit = FillUnit()
        self.trace_cache = FrameCache(config.frame_cache_uops)

    def next_block(self, cycle: int) -> FetchBlock | None:
        if self.index >= len(self.injected):
            return None
        pc = self.injected.pcs[self.index]
        line = self.trace_cache.lookup(pc)
        if line is not None:
            matched = self._match_length(line)
            if matched > 0:
                return self._dispatch_line(matched)
        block, count = build_icache_block(
            self.injected, self.index, self.config, self.line_sched
        )
        self._retire_region(count)
        return block

    def _match_length(self, line: TraceLine) -> int:
        """Number of leading line instructions matching the upcoming path."""
        pcs = line.x86_pcs
        upcoming = self.injected.pcs[self.index : self.index + len(pcs)]
        matched = 0
        for pc, expected in zip(upcoming, pcs):
            if pc != expected:
                break
            matched += 1
        return matched

    def _dispatch_line(self, matched: int) -> FetchBlock:
        """The line's ``matched`` leading instructions, as a window over
        the stream: the current instances' addresses and branch outcomes
        and the stream's schedule tuples."""
        injected = self.injected
        offsets = injected.offsets
        block = FetchBlock(
            source="tcache",
            uops=injected.uops,
            addresses=injected.addresses,
            lo=offsets[self.index],
            hi=offsets[self.index + matched],
            x86_count=matched,
            sched=self.line_sched,
            branch_events=injected.events,
        )
        self._retire_region(matched)
        return block

    def _retire_region(self, count: int) -> None:
        for _ in range(count):
            line = self.fill_unit.retire(self.injected, self.index)
            if line is not None:
                self.trace_cache.insert(line)
            self.index += 1
