"""Sequencers: the fetch-source decision logic (paper §2, Figure 5).

``ICacheSequencer`` models a conventional front end.  ``RePLaySequencer``
couples the frame constructor, optimization engine, frame cache, and the
recovery model: at each fetch point it probes the frame cache; a hit
dispatches the frame, and the dynamic instance either commits (its path
matches and no unsafe store aliases) or fires, rolling back and
re-executing the region from the ICache.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.trace.injector import InjectedTrace
from repro.replay.constructor import ConstructorConfig, closed_regions
from repro.replay.fetch_groups import build_icache_block
from repro.replay.frame import Frame, degenerate_branch
from repro.replay.frame_cache import FrameCache
from repro.replay.optqueue import OptimizationQueue
from repro.optimizer.pipeline import FrameOptimizer
from repro.timing.config import ProcessorConfig
from repro.timing.pipeline import BranchEvent, FetchBlock
from repro.timing.schedule import FrameSchedule, ScheduleBuilder
from repro.verify.state import ArchState
from repro.verify.verifier import StateVerifier


@dataclass
class SequencerStats:
    """Dynamic-stream accounting used for Table 3."""

    raw_uops_total: int = 0  # uops the injector would supply for all x86
    raw_loads_total: int = 0
    frame_raw_uops: int = 0  # original uops of regions covered by frames
    frame_fetched_uops: int = 0  # uops actually fetched for those regions
    frame_raw_loads: int = 0
    frame_fetched_loads: int = 0
    frame_dispatches: int = 0
    frame_aborts: int = 0
    unsafe_aborts: int = 0
    cooldown_skips: int = 0  # dispatch opportunities skipped post-fire

    @property
    def dynamic_uop_reduction(self) -> float:
        """Fraction of all dynamic uops removed by optimization (Table 3)."""
        if not self.raw_uops_total:
            return 0.0
        return (self.frame_raw_uops - self.frame_fetched_uops) / self.raw_uops_total

    @property
    def dynamic_load_reduction(self) -> float:
        if not self.raw_loads_total:
            return 0.0
        return (
            self.frame_raw_loads - self.frame_fetched_loads
        ) / self.raw_loads_total


def dynamic_address(injected: InjectedTrace, base_index: int, uop) -> int | None:
    """Current-instance address of a frame memory uop (via its mem key).

    ``base_index`` is the injected-stream index where the frame instance
    starts.  Falls back to the construction-time observed address when
    the key cannot be resolved against this instance's records.
    """
    if uop.mem_key is None:
        return uop.observed_address
    x86_index, mem_index = uop.mem_key
    record = injected.records[base_index + x86_index]
    if mem_index >= len(record.mem_ops):
        return uop.observed_address
    return record.mem_ops[mem_index].address


def unsafe_store_conflict(
    frame: Frame,
    injected: InjectedTrace,
    base_index: int,
    unsafe_stores: Sequence,
) -> bool:
    """Unsafe-store alias check (paper §3.4).

    The paper describes comparing an unsafe store against *all* prior
    memory transactions; we check the speculation's actual premise — the
    unsafe store must not touch the bytes whose forwarded value it was
    speculated not to clobber (the covering load/store of each removed
    load).  The blanket rule aborts constantly on kernels that
    legitimately revisit a table inside one frame, which contradicts the
    paper's observation that speculatively removed loads "almost never
    cause frames to abort"; see DESIGN.md.

    Shared by :class:`RePLaySequencer` dispatch and the differential
    fuzz oracle (:mod:`repro.fuzz.oracle`), so both judge an instance's
    commit eligibility identically.  ``unsafe_stores`` is the frame's
    kept unsafe stores in frame order (``FrameSchedule.unsafe_stores``
    here, collected once per frame in the oracle).
    """
    buffer = frame.buffer
    for store in unsafe_stores:
        address = dynamic_address(injected, base_index, store)
        if address is None:
            continue
        for guard_slot in store.unsafe_guards:
            guard = buffer.uops[guard_slot]
            guard_address = dynamic_address(injected, base_index, guard)
            if guard_address is None:
                continue
            if (
                address < guard_address + guard.size
                and guard_address < address + store.size
            ):
                return True
    return False


class ICacheSequencer:
    """Conventional fetch: everything comes from the instruction cache."""

    def __init__(self, injected: InjectedTrace, config: ProcessorConfig) -> None:
        self.injected = injected
        self.config = config
        self.index = 0
        self.stats = SequencerStats(
            raw_uops_total=injected.uop_count, raw_loads_total=injected.load_count
        )
        #: per-run schedule builder: the stream's flat schedule, which
        #: line blocks window into, and frame templates in subclasses.
        self.sched_builder = ScheduleBuilder(config)
        self.line_sched = self.sched_builder.line_schedule(injected)

    def next_block(self, cycle: int) -> FetchBlock | None:
        if self.index >= len(self.injected):
            return None
        block, count = build_icache_block(
            self.injected, self.index, self.config, self.line_sched
        )
        self.index += count
        return block


class RePLaySequencer(ICacheSequencer):
    """Frame-cache-enabled fetch with construction, optimization, recovery."""

    #: Evict a frame once its fires exceed its commits by this margin.
    FIRE_EVICTION_MARGIN = 4

    def __init__(
        self,
        injected: InjectedTrace,
        config: ProcessorConfig,
        optimizer: FrameOptimizer | None,
        constructor_config: ConstructorConfig | None = None,
        verifier: StateVerifier | None = None,
    ) -> None:
        super().__init__(injected, config)
        #: the frame constructor's closed regions over the retired stream,
        #: and the next one to submit.
        self._regions = closed_regions(injected, constructor_config)
        self._next_region = 0
        self.frame_cache = FrameCache(config.frame_cache_uops)
        self.queue = OptimizationQueue(self.frame_cache, optimizer)
        self.verifier = verifier
        #: the true architectural state at ``index``, kept to verify frames.
        self.state = ArchState() if verifier is not None else None
        #: After a fire, the aborted frame's original instructions execute
        #: from the ICache (paper §3.4); no frame dispatch until this index.
        self._icache_until = 0
        self._verified_paths: set[tuple] = set()

    # ------------------------------------------------------------- fetch

    def next_block(self, cycle: int) -> FetchBlock | None:
        if self.index >= len(self.injected):
            return None
        self.queue.drain(cycle)
        pc = self.injected.pcs[self.index]
        frame = template = None
        if self.index >= self._icache_until:
            frame = self.frame_cache.lookup(pc)
        if frame is not None:
            # A cached frame's buffer is final, so its template is too.
            template = self.sched_builder.frame_schedule(frame)
        if template is not None and template.kept:
            if frame.cooldown > 0:
                frame.cooldown -= 1
                self.stats.cooldown_skips += 1
            elif self._instance_commits(frame, template):
                return self._dispatch_frame(frame, template, cycle)
            else:
                return self._dispatch_firing_frame(frame, template)
        probe = (
            self.frame_cache.contains if self.index >= self._icache_until else None
        )
        block, count = build_icache_block(
            self.injected, self.index, self.config, self.line_sched, stop_probe=probe
        )
        self._retire_region(count, cycle)
        return block

    # ------------------------------------------------------- frame checks

    def _instance_commits(self, frame: Frame, template: FrameSchedule) -> bool:
        """Path match plus unsafe-store alias check for this instance."""
        injected = self.injected
        base = self.index
        if injected.pcs[base : base + frame.x86_count] != frame.x86_pcs:
            return False
        stores = template.unsafe_stores
        if stores and unsafe_store_conflict(frame, injected, base, stores):
            self.stats.unsafe_aborts += 1
            return False
        return True

    # --------------------------------------------------------- dispatch

    def _frame_addresses(
        self, template: FrameSchedule
    ) -> list[int | None]:
        """Current-instance addresses, resolved only at the memory slots."""
        addresses: list[int | None] = [None] * len(template.kept)
        injected = self.injected
        base = self.index
        for position, uop in template.mem_positions:
            addresses[position] = dynamic_address(injected, base, uop)
        return addresses

    def _train_events(self, frame: Frame) -> list[BranchEvent]:
        """Predictor-training events for the frame's internal transfers.

        A committing instance retires exactly the frame's path, so each
        event's kind, pc and target are the frame's, and the events are
        read once, on the first commit.  The exception is a conditional
        branch whose target equals its fall-through: both directions
        retire the same path, so its event is this instance's own.
        """
        cached = frame.train_events
        if cached is None:
            cached = frame.train_events = self._build_train_events(frame)
        events, per_instance = cached
        if not per_instance:
            return events
        events = list(events)
        stream_events = self.injected.events
        base = self.injected.offsets[self.index]
        for k, position in per_instance:
            events[k] = stream_events[base + position]
        return events

    def _build_train_events(
        self, frame: Frame
    ) -> tuple[list[BranchEvent], list[tuple[int, int]]]:
        """The events of this instance, read from the stream's event map,
        and ``(event, uop position in the frame)`` of each whose outcome
        varies per instance."""
        injected = self.injected
        offsets = injected.offsets
        stream_events = injected.events
        base = offsets[self.index]
        events: list[BranchEvent] = []
        per_instance: list[tuple[int, int]] = []
        for position in range(self.index, self.index + frame.x86_count - 1):
            record = injected.records[position]
            if not record.instruction.is_branch:
                continue
            for key in range(offsets[position], offsets[position + 1]):
                event = stream_events.get(key)
                if event is not None:
                    if event.kind == "cond" and degenerate_branch(
                        injected.uops[key], record
                    ):
                        per_instance.append((len(events), key - base))
                    events.append(event)
        return events, per_instance

    def _dispatch_frame(
        self, frame: Frame, template: FrameSchedule, cycle: int
    ) -> FetchBlock:
        uops = template.kept
        addresses = self._frame_addresses(template)
        train_events = self._train_events(frame)
        if (
            self.verifier is not None
            and frame.opt_result is not None
            and frame.path_key not in self._verified_paths
        ):
            base = self.index
            records = self.injected.records[base : base + frame.x86_count]
            self.verifier.verify_frame_instance(frame, records, self.state)
            self._verified_paths.add(frame.path_key)
        stats = self.stats
        stats.frame_dispatches += 1
        stats.frame_raw_uops += template.raw_uops
        stats.frame_fetched_uops += len(uops)
        stats.frame_raw_loads += template.raw_loads
        stats.frame_fetched_loads += template.fetched_loads
        frame.commits += 1
        self._retire_region(frame.x86_count, cycle)
        return FetchBlock(
            source="frame",
            uops=uops,
            addresses=addresses,
            lo=0,
            hi=len(uops),
            x86_count=frame.x86_count,
            train_events=train_events,
            frame=frame,
            sched=template,
        )

    def _dispatch_firing_frame(
        self, frame: Frame, template: FrameSchedule
    ) -> FetchBlock:
        """This instance deviates from the frame's path: it fires."""
        self.stats.frame_aborts += 1
        frame.fires += 1
        frame.cooldown = 4  # skip the next few dispatch opportunities
        if frame.fires > frame.commits + self.FIRE_EVICTION_MARGIN:
            self.frame_cache.evict(frame.start_pc)
        # The aborted region re-executes from the ICache (paper §3.4).
        self._icache_until = self.index + frame.x86_count
        return FetchBlock(
            source="frame",
            uops=template.kept,
            addresses=template.fire_addresses,
            lo=0,
            hi=len(template.kept),
            x86_count=0,  # nothing retires; the region re-executes next
            fires=True,
            frame=frame,
            sched=template,
        )

    # --------------------------------------------------------- retirement

    def _retire_region(self, count: int, cycle: int) -> None:
        """Retire ``count`` instructions: advance the verified state and
        submit a fresh frame for each region the constructor closes."""
        injected = self.injected
        stop = self.index + count
        if self.state is not None:
            for record in injected.records[self.index : stop]:
                self.state.apply_record(record)
        regions = self._regions
        k = self._next_region
        while k < len(regions) and regions[k][0] < stop:
            _, start, end, end_next_pc = regions[k]
            frame = Frame.from_region(injected, start, end, end_next_pc)
            self.queue.submit(frame, cycle)
            k += 1
        self._next_region = k
        self.index = stop
