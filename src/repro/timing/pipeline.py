"""The 8-wide pipeline timing model (paper §5.1.2, §5.3).

A scoreboard-style model of the paper's deeply pipelined 8-wide machine:

* fetch delivers up to 8 uops/cycle from the active source (ICache paths
  additionally decode at most 4 x86 instructions/cycle and break at taken
  branches; frame/trace-cache paths stream straight through — the fetch-
  bandwidth advantage that motivates rePLay);
* every uop issues after its sources are ready, no earlier than
  ``branch_resolution_depth`` cycles after fetch (modeling the deep
  front end), onto a free functional unit of its class;
* loads access the D-cache hierarchy; in-order retirement at 8/cycle
  bounds the 512-entry window, so long-latency misses back up into
  fetch stalls.

Each fetch-engine cycle is tallied into one of the paper's seven bins
(assert, mispredict, miss, stall, wait, frame, icache) exactly as in the
Figure 7/8 breakdowns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.uops.uop import Uop, UopOp, UReg
from repro.optimizer.optuop import DefRef, LiveIn, OptUop
from repro.timing.caches import Cache, CacheHierarchy
from repro.timing.config import ProcessorConfig
from repro.timing.predictor import FrontEndPredictors
from repro.timing.schedule import (
    KIND_LOAD,
    KIND_STORE,
    FrameSchedule,
    ScheduleBuilder,
)

#: Cycle-accounting bins, in the paper's priority order.
BINS = ("assert", "mispred", "miss", "stall", "wait", "frame", "icache")

#: Shared empty event map for the (common) branch-free block.
_NO_EVENTS: dict[int, "BranchEvent"] = {}


@dataclass
class BranchEvent:
    """A predictable control transfer within an ICache/trace-cache block."""

    uop_index: int
    kind: str  # 'cond' | 'call' | 'ret' | 'jmp' | 'jmpi'
    pc: int
    taken: bool = True
    target: int = 0
    return_address: int = 0


@dataclass
class FetchBlock:
    """One unit of fetch handed to the timing model by a sequencer."""

    source: str  # 'icache' | 'frame' | 'tcache'
    uops: list  # dyn Uops (icache/tcache) or OptUops (frame)
    addresses: list  # per-uop dynamic memory address (None for non-mem)
    x86_count: int
    pc: int
    byte_start: int = 0
    byte_end: int = 0
    branch_events: list[BranchEvent] = field(default_factory=list)
    #: control transfers embedded in a frame: they train the predictors
    #: (keeping gshare history and the RAS consistent with the retired
    #: stream) but carry no penalty — inside a frame they are assertions.
    train_events: list[BranchEvent] = field(default_factory=list)
    fires: bool = False  # frame instance whose assertion/unsafe store fires
    frame: object | None = None
    #: static schedule template: a list of dyn schedule tuples (icache /
    #: tcache blocks) or a :class:`repro.timing.schedule.FrameSchedule`
    #: (frame blocks).  ``None`` = the model derives one on the fly.
    sched: object | None = None


@dataclass
class SimResult:
    """Aggregate outcome of one simulation run."""

    cycles: int = 0
    x86_retired: int = 0
    uops_fetched: int = 0
    loads_executed: int = 0
    stores_executed: int = 0
    bins: dict[str, int] = field(default_factory=lambda: {b: 0 for b in BINS})
    frames_fetched: int = 0
    frames_fired: int = 0
    frame_x86_coverage: int = 0
    branch_mispredicts: int = 0
    #: scheduling-window occupancy, sampled once per fetch chunk.
    window_occupancy_sum: int = 0
    window_occupancy_samples: int = 0

    @property
    def window_occupancy_mean(self) -> float:
        """Mean in-flight uops at fetch time (512-entry window pressure)."""
        if not self.window_occupancy_samples:
            return 0.0
        return self.window_occupancy_sum / self.window_occupancy_samples

    @property
    def ipc_x86(self) -> float:
        """Retired x86 instructions per cycle (the paper's metric)."""
        if not self.cycles:
            return 0.0
        return self.x86_retired / self.cycles

    @property
    def coverage(self) -> float:
        """Fraction of x86 instructions fetched from the frame/trace cache."""
        if not self.x86_retired:
            return 0.0
        return self.frame_x86_coverage / self.x86_retired


class PipelineModel:
    """Cycle-accounting simulator for one run."""

    #: extra cycles between detecting a firing assertion (at frame
    #: readiness, the paper's pessimistic model) and restarting fetch.
    RECOVERY_LATENCY = 5

    def __init__(self, config: ProcessorConfig, scheduling: str = "template") -> None:
        if scheduling not in ("template", "reference"):
            raise ValueError(f"unknown scheduling mode: {scheduling!r}")
        # Every simulation entry point funnels through here, so this is
        # where degenerate geometries die with a field-named ConfigError
        # instead of a mid-run crash or an infinite issue loop.
        config.validate()
        self.config = config
        #: 'template' consumes precomputed schedule tuples (fast path);
        #: 'reference' walks Uop/OptUop objects (original implementation).
        #: Both must produce identical SimResults — see DESIGN.md §11 and
        #: tests/timing/test_schedule_ab.py.
        self.scheduling = scheduling
        self._builder = ScheduleBuilder(config)
        self.cycle = 0
        self.result = SimResult()
        self.predictors = FrontEndPredictors(config)
        l2 = Cache(config.l2)
        self.icache = CacheHierarchy(config.icache, l2, config.memory_latency)
        self.dcache = CacheHierarchy(config.dcache, l2, config.memory_latency)
        self._reg_ready: dict[int, int] = {}
        self._flags_ready = 0
        #: word-granular store-to-load dependence: a load cannot complete
        #: before the last overlapping store's data is available (the
        #: store-buffer bypass the paper calls out as expensive, §6.2).
        self._mem_ready: dict[int, int] = {}
        # Table 2: 4 load/store units with 4 read and 4 write D-cache
        # ports — loads and stores do not contend with each other.
        self._fu_caps = {
            "simple": config.simple_alus,
            "complex": config.complex_alus,
            "fpu": config.fpus,
            "load": config.load_store_units,
            "store": config.load_store_units,
        }
        self._fu_used: dict[str, dict[int, int]] = {k: {} for k in self._fu_caps}
        self._inflight: deque[int] = deque()  # retire times, non-decreasing
        self._retire_cycle = 0
        self._retire_count = 0
        self._last_retire = 0
        self._last_source: str | None = None

    # ------------------------------------------------------------- public

    def simulate(self, fetcher) -> SimResult:
        """Drive ``fetcher.next_block(cycle)`` until it returns None."""
        while True:
            block = fetcher.next_block(self.cycle)
            if block is None:
                break
            self._run_block(block)
        self.cycle = max(self.cycle, self._last_retire)
        self.result.cycles = self.cycle
        self.result.branch_mispredicts = self.predictors.gshare.mispredictions
        return self.result

    # ------------------------------------------------------------ fetch

    def _run_block(self, block: FetchBlock) -> None:
        self._switch_source(block.source)
        if block.source == "icache":
            self._fetch_lines(block)
        if block.source == "frame":
            self.result.frames_fetched += 1
        if block.fires:
            self._run_firing_frame(block)
            return
        # Internal transfers precede the exit branch in program order, so
        # they train the predictors before the exit event is evaluated.
        for event in block.train_events:
            self._train_predictors(event)
        if block.source == "frame":
            self._run_frame_block(block)
        else:
            bin_name = "frame" if block.source == "tcache" else "icache"
            self._run_line_block(block, bin_name)
        if block.source in ("frame", "tcache"):
            self.result.frame_x86_coverage += block.x86_count
        self.result.uops_fetched += len(block.uops)
        self.result.x86_retired += block.x86_count

    def _event_map(self, block: FetchBlock) -> dict[int, BranchEvent]:
        """Index branch events by uop position, rejecting collisions.

        A duplicate ``uop_index`` would make one event silently shadow
        another (dict overwrite), so a mis-built block now fails loudly.
        """
        if not block.branch_events:
            return _NO_EVENTS
        events: dict[int, BranchEvent] = {}
        for event in block.branch_events:
            if event.uop_index in events:
                raise ValueError(
                    f"duplicate branch event at uop index {event.uop_index} "
                    f"in block @ {block.pc:#x}"
                )
            events[event.uop_index] = event
        return events

    def _run_line_block(self, block: FetchBlock, bin_name: str) -> None:
        """Fetch/execute an ICache or trace-cache block (dyn uops)."""
        events = self._event_map(block)
        width = self.config.fetch_width
        uops = block.uops
        addresses = block.addresses
        n = len(uops)
        bins = self.result.bins
        index = 0
        if self.scheduling == "template":
            depth = self.config.branch_resolution_depth
            sched = block.sched
            if sched is None:
                builder = self._builder
                sched = [builder.dyn_sched(u) for u in uops]
            execute = self._execute_dyn_sched
            while index < n:
                chunk = min(width, n - index)
                self._wait_for_window(chunk)
                bins[bin_name] += 1
                base_ready = self.cycle + depth
                self.cycle += 1
                for i in range(index, index + chunk):
                    complete = execute(sched[i], addresses[i], base_ready)
                    event = events.get(i)
                    if event is not None:
                        self._handle_branch(event, complete)
                index += chunk
        else:
            while index < n:
                chunk = min(width, n - index)
                self._wait_for_window(chunk)
                bins[bin_name] += 1
                fetch_cycle = self.cycle
                self.cycle += 1
                for i in range(index, index + chunk):
                    complete = self._execute_dyn_uop(
                        uops[i], addresses[i], fetch_cycle
                    )
                    event = events.get(i)
                    if event is not None:
                        self._handle_branch(event, complete)
                index += chunk

    def _frame_template(self, block: FetchBlock) -> FrameSchedule:
        """The block's FrameSchedule, building one if the sequencer didn't."""
        template = block.sched
        if isinstance(template, FrameSchedule) and len(template.sched) == len(
            block.uops
        ):
            return template
        frame = block.frame
        if frame is not None and getattr(frame, "buffer", None) is not None:
            template = self._builder.frame_schedule(frame)
            if len(template.sched) == len(block.uops):
                return template
        return self._builder.adhoc_frame_schedule(block.uops)

    def _run_frame_block(self, block: FetchBlock) -> None:
        """Fetch/execute a committing frame block (opt uops).

        Frame-internal transfers are assertions: ``branch_events`` carry
        no penalty here (only ``train_events`` touch the predictors), in
        both scheduling modes.
        """
        width = self.config.fetch_width
        uops = block.uops
        addresses = block.addresses
        n = len(uops)
        bins = self.result.bins
        index = 0
        if self.scheduling == "template":
            depth = self.config.branch_resolution_depth
            template = self._frame_template(block)
            sched = template.sched
            slot_values = [0] * template.nslots
            slot_flags = [0] * template.nslots
            execute = self._execute_opt_sched
            while index < n:
                chunk = min(width, n - index)
                self._wait_for_window(chunk)
                bins["frame"] += 1
                base_ready = self.cycle + depth
                self.cycle += 1
                for i in range(index, index + chunk):
                    execute(sched[i], addresses[i], base_ready, slot_values, slot_flags)
                index += chunk
            if block.frame is not None:
                reg_ready = self._reg_ready
                for reg, slot in template.live_out_plan:
                    reg_ready[reg] = slot_values[slot]
                if template.flags_out_slot is not None:
                    self._flags_ready = slot_flags[template.flags_out_slot]
        else:
            slot_values_map: dict[int, int] = {}
            slot_flags_map: dict[int, int] = {}
            while index < n:
                chunk = min(width, n - index)
                self._wait_for_window(chunk)
                bins["frame"] += 1
                fetch_cycle = self.cycle
                self.cycle += 1
                for i in range(index, index + chunk):
                    self._execute_opt_uop(
                        uops[i],
                        addresses[i],
                        fetch_cycle,
                        slot_values_map,
                        slot_flags_map,
                    )
                index += chunk
            if block.frame is not None:
                self._commit_frame_live_outs(
                    block.frame, slot_values_map, slot_flags_map
                )

    def _switch_source(self, source: str) -> None:
        if source == "tcache":
            source = "frame"  # trace cache occupies the same slot as FCache
        if self._last_source is not None and source != self._last_source:
            self.result.bins["wait"] += self.config.cache_switch_penalty
            self.cycle += self.config.cache_switch_penalty
        self._last_source = source

    def _fetch_lines(self, block: FetchBlock) -> None:
        """Model instruction-cache misses for the block's byte footprint."""
        size = max(1, block.byte_end - block.byte_start)
        latency = self.icache.access(block.byte_start, size)
        penalty = latency - self.config.icache.hit_latency
        if penalty > 0:
            self.result.bins["miss"] += penalty
            self.cycle += penalty

    def _wait_for_window(self, incoming: int) -> None:
        """Stall fetch until the scheduling window has room."""
        inflight = self._inflight
        while inflight and inflight[0] <= self.cycle:
            inflight.popleft()
        while len(inflight) + incoming > self.config.window_size:
            self.result.bins["stall"] += 1
            self.cycle += 1
            while inflight and inflight[0] <= self.cycle:
                inflight.popleft()
        self.result.window_occupancy_sum += len(inflight)
        self.result.window_occupancy_samples += 1

    # ------------------------------------------------------------ execute

    def _fu_class(self, op: UopOp) -> str:
        if op is UopOp.LOAD:
            return "load"
        if op is UopOp.STORE:
            return "store"
        if op in (UopOp.MUL, UopOp.DIVQ, UopOp.DIVR):
            return "complex"
        return "simple"

    def _latency(self, op: UopOp, address, size: int) -> int:
        if op is UopOp.LOAD:
            self.result.loads_executed += 1
            if address is not None:
                return self.dcache.access(address, size)
            return self.config.dcache.hit_latency
        if op is UopOp.STORE:
            self.result.stores_executed += 1
            if address is not None:
                self.dcache.access(address, size)  # allocate/fill
            return 1
        if op is UopOp.MUL:
            return self.config.mul_latency
        if op in (UopOp.DIVQ, UopOp.DIVR):
            return self.config.div_latency
        return 1

    def _mem_words(self, address: int, size: int):
        first = address >> 2
        last = (address + max(size, 1) - 1) >> 2
        return range(first, last + 1)

    def _load_store_dependence(self, address, size: int, ready: int) -> int:
        """Earliest time an overlapping store's data can be bypassed."""
        if address is None or not self._mem_ready:
            return ready
        mem_ready = self._mem_ready
        for word in self._mem_words(address, size):
            t = mem_ready.get(word, 0)
            if t > ready:
                ready = t
        return ready

    def _record_store(self, address, size: int, complete: int) -> None:
        if address is None:
            return
        mem_ready = self._mem_ready
        for word in self._mem_words(address, size):
            mem_ready[word] = complete
        if len(mem_ready) > (1 << 16):
            horizon = self.cycle
            self._mem_ready = {
                k: v for k, v in mem_ready.items() if v > horizon
            }

    def _issue(self, fu: str, ready: int) -> int:
        used = self._fu_used[fu]
        cap = self._fu_caps[fu]
        t = ready
        while used.get(t, 0) >= cap:
            t += 1
        used[t] = used.get(t, 0) + 1
        if len(used) > 16384:
            horizon = self.cycle
            self._fu_used[fu] = {k: v for k, v in used.items() if k >= horizon}
        return t

    def _retire(self, complete: int) -> None:
        time = max(complete + 1, self._retire_cycle)
        if time > self._retire_cycle:
            self._retire_cycle = time
            self._retire_count = 1
        else:
            self._retire_count += 1
            if self._retire_count > self.config.retire_width:
                self._retire_cycle += 1
                self._retire_count = 1
                time = self._retire_cycle
        self._inflight.append(time)
        if time > self._last_retire:
            self._last_retire = time

    def _execute_dyn_uop(self, uop: Uop, address, fetch_cycle: int) -> int:
        """Schedule one pre-rename uop; returns its completion cycle."""
        ready = fetch_cycle + self.config.branch_resolution_depth
        reg_ready = self._reg_ready
        for src in (uop.src_a, uop.src_b, uop.src_data):
            if src is not None:
                t = reg_ready.get(src, 0)
                if t > ready:
                    ready = t
        # Shared predicate (repro.uops.uop.uop_reads_flags): conditional
        # control, CF-preserving ops, *and* flag-writing shifts whose flag
        # update may be suppressed (the flags-dependence asymmetry fix —
        # the old inline condition missed the shift case, so the ICache
        # path under-serialized flag chains relative to the frame path).
        if uop.reads_flags:
            if self._flags_ready > ready:
                ready = self._flags_ready
        if uop.op is UopOp.LOAD:
            ready = self._load_store_dependence(address, uop.size, ready)
        issue = self._issue(self._fu_class(uop.op), ready)
        complete = issue + self._latency(uop.op, address, uop.size)
        if uop.op is UopOp.STORE:
            self._record_store(address, uop.size, complete)
        if uop.dst is not None:
            reg_ready[uop.dst] = complete
        if uop.writes_flags:
            self._flags_ready = complete
        self._retire(complete)
        return complete

    def _execute_opt_uop(
        self,
        uop: OptUop,
        address,
        fetch_cycle: int,
        slot_values: dict[int, int],
        slot_flags: dict[int, int],
    ) -> int:
        """Schedule one remapped frame uop; returns its completion cycle."""
        ready = fetch_cycle + self.config.branch_resolution_depth
        for _, operand in uop.operands():
            if isinstance(operand, DefRef):
                t = slot_values.get(operand.slot, 0)
            else:
                t = self._reg_ready.get(operand.reg, 0)
            if t > ready:
                ready = t
        if uop.reads_flags:
            if uop.flags_src is None:
                t = self._flags_ready
            else:
                t = slot_flags.get(uop.flags_src, 0)
            if t > ready:
                ready = t
        if uop.op is UopOp.LOAD:
            ready = self._load_store_dependence(address, uop.size, ready)
        issue = self._issue(self._fu_class(uop.op), ready)
        complete = issue + self._latency(uop.op, address, uop.size)
        if uop.op is UopOp.STORE:
            self._record_store(address, uop.size, complete)
        slot_values[uop.slot] = complete
        if uop.writes_flags:
            slot_flags[uop.slot] = complete
        self._retire(complete)
        return complete

    # Template-scheduling twins of the two methods above: consume flat
    # schedule tuples (repro.timing.schedule) instead of uop objects and
    # dense slot lists instead of dicts.  Must stay cycle-identical.

    def _execute_dyn_sched(self, sched: tuple, address, base_ready: int) -> int:
        """Schedule one pre-rename uop from its schedule tuple."""
        fu, srcs, rflags, kind, latency, dst, wflags, size = sched
        ready = base_ready
        reg_ready = self._reg_ready
        for src in srcs:
            t = reg_ready.get(src, 0)
            if t > ready:
                ready = t
        if rflags and self._flags_ready > ready:
            ready = self._flags_ready
        if kind == KIND_LOAD:
            ready = self._load_store_dependence(address, size, ready)
            issue = self._issue(fu, ready)
            self.result.loads_executed += 1
            if address is not None:
                complete = issue + self.dcache.access(address, size)
            else:
                complete = issue + self.config.dcache.hit_latency
        elif kind == KIND_STORE:
            issue = self._issue(fu, ready)
            self.result.stores_executed += 1
            if address is not None:
                self.dcache.access(address, size)  # allocate/fill
            complete = issue + 1
            self._record_store(address, size, complete)
        else:
            issue = self._issue(fu, ready)
            complete = issue + latency
        if dst is not None:
            reg_ready[dst] = complete
        if wflags:
            self._flags_ready = complete
        self._retire(complete)
        return complete

    def _execute_opt_sched(
        self,
        sched: tuple,
        address,
        base_ready: int,
        slot_values: list[int],
        slot_flags: list[int],
    ) -> int:
        """Schedule one remapped frame uop from its schedule tuple."""
        fu, deps, rflags, flags_src, kind, latency, slot, wflags, size = sched
        ready = base_ready
        reg_ready = self._reg_ready
        for is_slot, key in deps:
            t = slot_values[key] if is_slot else reg_ready.get(key, 0)
            if t > ready:
                ready = t
        if rflags:
            t = self._flags_ready if flags_src is None else slot_flags[flags_src]
            if t > ready:
                ready = t
        if kind == KIND_LOAD:
            ready = self._load_store_dependence(address, size, ready)
            issue = self._issue(fu, ready)
            self.result.loads_executed += 1
            if address is not None:
                complete = issue + self.dcache.access(address, size)
            else:
                complete = issue + self.config.dcache.hit_latency
        elif kind == KIND_STORE:
            issue = self._issue(fu, ready)
            self.result.stores_executed += 1
            if address is not None:
                self.dcache.access(address, size)  # allocate/fill
            complete = issue + 1
            self._record_store(address, size, complete)
        else:
            issue = self._issue(fu, ready)
            complete = issue + latency
        slot_values[slot] = complete
        if wflags:
            slot_flags[slot] = complete
        self._retire(complete)
        return complete

    def _commit_frame_live_outs(
        self, frame, slot_values: dict[int, int], slot_flags: dict[int, int]
    ) -> None:
        """Propagate frame-exit register availability to the outer map."""
        buffer = frame.buffer
        if buffer is None:
            return
        for reg, operand in buffer.live_out.items():
            if isinstance(operand, DefRef):
                self._reg_ready[reg] = slot_values.get(operand.slot, 0)
            # LiveIn binding: availability time unchanged.
        if buffer.flags_live_out_slot is not None:
            self._flags_ready = slot_flags.get(
                buffer.flags_live_out_slot, self._flags_ready
            )

    # ------------------------------------------------------------ control

    def _handle_branch(self, event: BranchEvent, complete: int) -> None:
        predictors = self.predictors
        mispredicted = False
        if event.kind == "cond":
            correct = predictors.gshare.update(event.pc, event.taken)
            if correct and event.taken:
                # Direction right; the target still needs a BTB entry.
                predicted_target = predictors.btb.predict(event.pc)
                if predicted_target != event.target:
                    mispredicted = True
            elif not correct:
                mispredicted = True
            predictors.btb.update(event.pc, event.target)
        elif event.kind == "call":
            # Direct call: target encoded in the instruction, next-line
            # prediction corrected at decode; only the RAS is affected.
            predictors.ras.push(event.return_address)
        elif event.kind == "callind":
            predictors.ras.push(event.return_address)
            predicted_target = predictors.btb.predict(event.pc)
            if predicted_target != event.target:
                mispredicted = True
            predictors.btb.update(event.pc, event.target)
        elif event.kind == "ret":
            predicted = predictors.ras.pop()
            if predicted != event.target:
                mispredicted = True
        elif event.kind == "jmpi":
            predicted_target = predictors.btb.predict(event.pc)
            if predicted_target != event.target:
                mispredicted = True
            predictors.btb.update(event.pc, event.target)
        # direct 'jmp': next-line prediction, no penalty modeled
        if mispredicted:
            redirect = complete + 1
            if redirect > self.cycle:
                self.result.bins["mispred"] += redirect - self.cycle
                self.cycle = redirect

    def _train_predictors(self, event: BranchEvent) -> None:
        """Penalty-free predictor update for frame-internal transfers."""
        predictors = self.predictors
        if event.kind == "cond":
            predictors.gshare.update(event.pc, event.taken)
            predictors.btb.update(event.pc, event.target)
        elif event.kind in ("call", "callind"):
            predictors.ras.push(event.return_address)
            if event.kind == "callind":
                predictors.btb.update(event.pc, event.target)
        elif event.kind == "ret":
            predictors.ras.pop()
        elif event.kind == "jmpi":
            predictors.btb.update(event.pc, event.target)

    # ------------------------------------------------------------ firing

    def _run_firing_frame(self, block: FetchBlock) -> None:
        """A fetched frame whose assertion (or unsafe store) fires.

        All cycles from the frame's fetch until recovery are Assert cycles
        (paper §6.1); the paper's pessimistic model initiates recovery
        only once the whole frame is ready to retire.  The frame's state
        is rolled back, so no architectural availability times change and
        no x86 instructions retire; the sequencer re-issues the region
        from the ICache next.
        """
        self.result.frames_fired += 1
        saved_regs = dict(self._reg_ready)
        saved_flags = self._flags_ready
        saved_mem = self._store_word_snapshot(block)
        width = self.config.fetch_width
        uops = block.uops
        addresses = block.addresses
        n = len(uops)
        bins = self.result.bins
        last_complete = self.cycle
        index = 0
        if self.scheduling == "template":
            depth = self.config.branch_resolution_depth
            template = self._frame_template(block)
            sched = template.sched
            slot_values = [0] * template.nslots
            slot_flags = [0] * template.nslots
            while index < n:
                chunk = min(width, n - index)
                self._wait_for_window(chunk)
                bins["assert"] += 1
                base_ready = self.cycle + depth
                self.cycle += 1
                for i in range(index, index + chunk):
                    complete = self._execute_opt_sched(
                        sched[i], addresses[i], base_ready, slot_values, slot_flags
                    )
                    if complete > last_complete:
                        last_complete = complete
                index += chunk
        else:
            slot_values_map: dict[int, int] = {}
            slot_flags_map: dict[int, int] = {}
            while index < n:
                chunk = min(width, n - index)
                self._wait_for_window(chunk)
                bins["assert"] += 1
                fetch_cycle = self.cycle
                self.cycle += 1
                for i in range(index, index + chunk):
                    complete = self._execute_opt_uop(
                        uops[i],
                        addresses[i],
                        fetch_cycle,
                        slot_values_map,
                        slot_flags_map,
                    )
                    if complete > last_complete:
                        last_complete = complete
                index += chunk
        recovery = last_complete + self.RECOVERY_LATENCY
        if recovery > self.cycle:
            bins["assert"] += recovery - self.cycle
            self.cycle = recovery
        # Roll back: the frame's register, flags, *and* store-buffer
        # effects are squashed.  Without the _mem_ready restore, the
        # aborted frame's speculative stores leaked forwarding times into
        # the post-recovery ICache replay of the same region.  (The
        # squashed uops still drained through the window, so retirement
        # bookkeeping is left alone.)
        self._reg_ready = saved_regs
        self._flags_ready = saved_flags
        self._restore_store_words(saved_mem)
        self.result.uops_fetched += n

    def _store_word_snapshot(self, block: FetchBlock) -> dict[int, int | None]:
        """Prior ``_mem_ready`` entries for every word the block's stores touch.

        ``None`` marks a word absent before the frame ran, so the restore
        can distinguish delete from overwrite.
        """
        deltas: dict[int, int | None] = {}
        mem_ready = self._mem_ready
        for uop, address in zip(block.uops, block.addresses):
            if address is not None and uop.is_store:
                for word in self._mem_words(address, uop.size):
                    if word not in deltas:
                        deltas[word] = mem_ready.get(word)
        return deltas

    def _restore_store_words(self, deltas: dict[int, int | None]) -> None:
        mem_ready = self._mem_ready
        for word, prior in deltas.items():
            if prior is None:
                mem_ready.pop(word, None)
            else:
                mem_ready[word] = prior
