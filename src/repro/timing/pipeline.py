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

from repro.uops.uop import Uop, UopOp
from repro.optimizer.optuop import DefRef, OptUop
from repro.timing.caches import Cache, CacheHierarchy
from repro.timing.config import ProcessorConfig
from repro.timing.predictor import FrontEndPredictors
from repro.timing.schedule import KIND_LOAD

#: Cycle-accounting bins, in the paper's priority order.
BINS = ("assert", "mispred", "miss", "stall", "wait", "frame", "icache")

#: Shared empty event map of a frame block (it has none); never mutated.
_NO_EVENTS: dict[int, "BranchEvent"] = {}


@dataclass(slots=True)
class BranchEvent:
    """A predictable control transfer: keyed by its control uop's position
    in an injected stream, or one of a frame's training events."""

    kind: str  # 'cond' | 'call' | 'ret' | 'jmp' | 'jmpi'
    pc: int
    taken: bool = True
    target: int = 0
    return_address: int = 0


@dataclass(slots=True)
class FetchBlock:
    """One unit of fetch handed to the timing model by a sequencer.

    The block is the window ``[lo, hi)`` of its ``uops``, ``addresses``
    and ``sched``: a line block (ICache or trace cache) windows its
    stream's flat arrays, a frame block spans its frame's own lists
    (``lo`` is 0, ``hi`` their length).
    """

    source: str  # 'icache' | 'frame' | 'tcache'
    uops: list  # dyn Uops (icache/tcache) or OptUops (frame)
    addresses: list  # per-uop dynamic memory address (None for non-mem)
    lo: int
    hi: int
    x86_count: int
    #: the schedule the sequencer built: the stream's flat list of
    #: schedule tuples (icache / tcache blocks) or the frame's
    #: :class:`repro.timing.schedule.FrameSchedule` (frame blocks).
    sched: object
    byte_start: int = 0
    byte_end: int = 0
    #: ``{uop position: event}`` for the control uops: the stream's event
    #: map for a line block (only keys in ``[lo, hi)`` are read).
    branch_events: dict[int, BranchEvent] = field(default_factory=lambda: _NO_EVENTS)
    #: control transfers embedded in a frame: they train the predictors
    #: (keeping gshare history and the RAS consistent with the retired
    #: stream) but carry no penalty — inside a frame they are assertions.
    train_events: list[BranchEvent] = field(default_factory=list)
    fires: bool = False  # frame instance whose assertion/unsafe store fires
    frame: object | None = None


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

    def simulate(self, fetcher, shadows=()) -> SimResult:
        """Drive ``fetcher.next_block(self.cycle)`` until it returns None,
        running each block here and on every one of ``shadows`` (lockstep,
        DESIGN.md §11; no model mutates the shared blocks).  Returns this
        model's result; a shadow's is its own ``result``."""
        models = (self, *shadows)
        while (block := fetcher.next_block(self.cycle)) is not None:
            for model in models:
                model._run_block(block)
        for model in models:
            model.cycle = max(model.cycle, model._last_retire)
            model.result.cycles = model.cycle
            model.result.branch_mispredicts = model.predictors.gshare.mispredictions
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
        # A frame's internal transfers are assertions: they train the
        # predictors (in program order, before its uops are fetched) but
        # carry no penalty.
        for event in block.train_events:
            self._handle_branch(event, None)
        self._schedule(block, "icache" if block.source == "icache" else "frame")
        if block.source in ("frame", "tcache"):
            self.result.frame_x86_coverage += block.x86_count
        self.result.uops_fetched += block.hi - block.lo
        self.result.x86_retired += block.x86_count

    def _schedule(self, block: FetchBlock, bin_name: str) -> int:
        """Fetch and schedule one block's uops, tallying ``bin_name``.

        The model's one scheduling fork: ``"template"`` hands the block's
        schedule to the ``_schedule_block`` kernel, ``"reference"`` walks
        its uop objects with ``_walk_block``.  A committing frame block
        then publishes its live-out registers and flags.  Returns the
        latest completion cycle in the block.
        """
        # What both implementations take after the uops: the window.
        window = (block.addresses, block.lo, block.hi, bin_name, block.branch_events)
        plan = block.sched
        frame_block = block.source == "frame"
        if self.scheduling == "template":
            if not frame_block:
                return self._schedule_block(plan, *window, (), ())
            slot_values = [0] * plan.nslots
            slot_flags = [0] * plan.nslots
            last_complete = self._schedule_block(
                plan.sched, *window, slot_values, slot_flags
            )
            if not block.fires:
                reg_ready = self._reg_ready
                for reg, slot in plan.live_out_plan:
                    reg_ready[reg] = slot_values[slot]
                if plan.flags_out_slot is not None:
                    self._flags_ready = slot_flags[plan.flags_out_slot]
            return last_complete
        if not frame_block:
            return self._walk_block(block.uops, *window, None, None)
        slot_values_map: dict[int, int] = {}
        slot_flags_map: dict[int, int] = {}
        last_complete = self._walk_block(
            block.uops, *window, slot_values_map, slot_flags_map
        )
        if not block.fires and block.frame is not None:
            self._commit_frame_live_outs(block.frame, slot_values_map, slot_flags_map)
        return last_complete

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

    # ------------------------------------------------------------ template

    def _schedule_block(
        self,
        sched,
        addresses,
        lo: int,
        hi: int,
        bin_name: str,
        events: dict[int, BranchEvent],
        slot_values,
        slot_flags,
    ) -> int:
        """Fetch and schedule the uops ``[lo, hi)`` of a block's schedule
        tuples.

        The template path's one kernel: it does for every uop what
        ``_wait_for_window`` (per fetch chunk), ``_execute_*_uop``,
        ``_issue`` and ``_retire`` do on the reference path, keeping the
        model's state in locals for the whole block.  ``slot_values`` and
        ``slot_flags`` are a frame block's dense slot lists (empty for a
        line block).  Returns the latest completion cycle in the block.

        ``self.cycle``, each functional-unit table and ``_mem_ready`` are
        re-read where the reference reads them: ``_handle_branch`` moves
        ``cycle`` mid-chunk, and a prune rebinds a table.
        """
        config = self.config
        width = config.fetch_width
        window = config.window_size
        depth = config.branch_resolution_depth
        retire_width = config.retire_width
        bins = self.result.bins
        inflight = self._inflight
        popleft = inflight.popleft
        push = inflight.append
        reg_ready = self._reg_ready
        reg_get = reg_ready.get
        flags_ready = self._flags_ready
        fu_used = self._fu_used
        fu_caps = self._fu_caps
        dcache_access = self.dcache.access
        handle_branch = self._handle_branch
        retire_cycle = self._retire_cycle
        retire_count = self._retire_count
        loads = stores = occupancy = samples = 0
        last_complete = self.cycle
        index = lo
        while index < hi:
            stop = index + width if hi - index > width else hi
            # Stall fetch until the window has room for the chunk.
            cycle = self.cycle
            while inflight and inflight[0] <= cycle:
                popleft()
            excess = len(inflight) + (stop - index) - window
            if excess > 0:
                # Retire times are non-decreasing: the stall ends when
                # the excess-th oldest in-flight uop retires.
                resume = inflight[excess - 1]
                bins["stall"] += resume - cycle
                cycle = resume
                while inflight and inflight[0] <= cycle:
                    popleft()
            occupancy += len(inflight)
            samples += 1
            bins[bin_name] += 1
            base_ready = cycle + depth
            self.cycle = cycle + 1
            for i in range(index, stop):
                (fu, regs, slots, rflags, flags_src, kind, latency, dst, slot,
                 wflags, size) = sched[i]
                ready = base_ready
                for reg in regs:
                    t = reg_get(reg, 0)
                    if t > ready:
                        ready = t
                for key in slots:
                    t = slot_values[key]
                    if t > ready:
                        ready = t
                if rflags:
                    t = flags_ready if flags_src is None else slot_flags[flags_src]
                    if t > ready:
                        ready = t
                address = addresses[i] if kind else None
                if kind == KIND_LOAD and address is not None:
                    mem_ready = self._mem_ready
                    if mem_ready:
                        last = (address + (size if size > 1 else 1) - 1) >> 2
                        for word in range(address >> 2, last + 1):
                            t = mem_ready.get(word, 0)
                            if t > ready:
                                ready = t
                # Issue on the first cycle with a free unit of the class.
                used = fu_used[fu]
                cap = fu_caps[fu]
                issue = ready
                taken = used.get(issue, 0)
                while taken >= cap:
                    issue += 1
                    taken = used.get(issue, 0)
                used[issue] = taken + 1
                if len(used) > 16384:
                    horizon = self.cycle
                    fu_used[fu] = {k: v for k, v in used.items() if k >= horizon}
                complete = issue + latency
                if kind:
                    if kind == KIND_LOAD:
                        loads += 1
                        if address is not None:
                            complete = issue + dcache_access(address, size)
                    else:
                        stores += 1
                        if address is not None:
                            dcache_access(address, size)  # allocate/fill
                            mem_ready = self._mem_ready
                            last = (address + (size if size > 1 else 1) - 1) >> 2
                            for word in range(address >> 2, last + 1):
                                mem_ready[word] = complete
                            if len(mem_ready) > (1 << 16):
                                horizon = self.cycle
                                self._mem_ready = {
                                    k: v for k, v in mem_ready.items() if v > horizon
                                }
                if slot is None:
                    if dst is not None:
                        reg_ready[dst] = complete
                    if wflags:
                        flags_ready = complete
                else:
                    slot_values[slot] = complete
                    if wflags:
                        slot_flags[slot] = complete
                if complete > last_complete:
                    last_complete = complete
                # In-order retirement, at most retire_width per cycle.
                if complete >= retire_cycle:
                    retire_cycle = complete + 1
                    retire_count = 1
                else:
                    retire_count += 1
                    if retire_count > retire_width:
                        retire_cycle += 1
                        retire_count = 1
                push(retire_cycle)
                if events:
                    event = events.get(i)
                    if event is not None:
                        handle_branch(event, complete)
            index = stop
        self._flags_ready = flags_ready
        self._retire_cycle = retire_cycle
        self._retire_count = retire_count
        if retire_cycle > self._last_retire:
            self._last_retire = retire_cycle
        result = self.result
        result.loads_executed += loads
        result.stores_executed += stores
        result.window_occupancy_sum += occupancy
        result.window_occupancy_samples += samples
        return last_complete

    # ----------------------------------------------------------- reference

    def _walk_block(
        self,
        uops,
        addresses,
        lo: int,
        hi: int,
        bin_name: str,
        events: dict[int, BranchEvent],
        slot_values,
        slot_flags,
    ) -> int:
        """Fetch and schedule the uops ``[lo, hi)`` of a block by walking
        its uop objects.

        The reference path's one chunk walker, with the kernel's
        signature: per fetch chunk it waits for the window, then runs
        ``_execute_dyn_uop`` (a line block: ``slot_values`` and
        ``slot_flags`` are None) or ``_execute_opt_uop`` (a frame block:
        they are its slot dicts) on each uop.  Returns the latest
        completion cycle in the block.
        """
        width = self.config.fetch_width
        bins = self.result.bins
        last_complete = self.cycle
        index = lo
        while index < hi:
            chunk = min(width, hi - index)
            self._wait_for_window(chunk)
            bins[bin_name] += 1
            fetch_cycle = self.cycle
            self.cycle += 1
            for i in range(index, index + chunk):
                if slot_values is None:
                    complete = self._execute_dyn_uop(uops[i], addresses[i], fetch_cycle)
                else:
                    complete = self._execute_opt_uop(
                        uops[i], addresses[i], fetch_cycle, slot_values, slot_flags
                    )
                if complete > last_complete:
                    last_complete = complete
                event = events.get(i)
                if event is not None:
                    self._handle_branch(event, complete)
            index += chunk
        return last_complete

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

    def _handle_branch(self, event: BranchEvent, complete: int | None) -> None:
        """Predict and train on one event; a mispredict redirects fetch
        one cycle after ``complete``.  A frame's training event passes
        None: it trains the same state but charges no redirect."""
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
        if mispredicted and complete is not None:
            redirect = complete + 1
            if redirect > self.cycle:
                self.result.bins["mispred"] += redirect - self.cycle
                self.cycle = redirect

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
        last_complete = self._schedule(block, "assert")
        recovery = last_complete + self.RECOVERY_LATENCY
        if recovery > self.cycle:
            self.result.bins["assert"] += recovery - self.cycle
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
        self.result.uops_fetched += block.hi - block.lo

    def _store_word_snapshot(self, block: FetchBlock) -> dict[int, int | None]:
        """Prior ``_mem_ready`` entries for every word the block's stores touch.

        ``None`` marks a word absent before the frame ran, so the restore
        can distinguish delete from overwrite.
        """
        deltas: dict[int, int | None] = {}
        mem_ready = self._mem_ready
        uops, addresses = block.uops, block.addresses
        for i in range(block.lo, block.hi):
            uop, address = uops[i], addresses[i]
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
