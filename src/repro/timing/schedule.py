"""Static schedule templates for the timing model (DESIGN.md §11).

The per-uop scheduling facts the pipeline model needs — functional-unit
class, operand dependence lists, flags dependence, static latency class —
are *static* per decoded instruction and per optimized frame, yet the
original model re-derived them from `Uop`/`OptUop` attributes for every
dynamic instance.  This module precomputes them once:

* :class:`ScheduleBuilder` builds one flat schedule-tuple list per
  injected stream and latency table (kept on the stream; decode depends
  only on the static uop, never on the dynamic record) and a
  :class:`FrameSchedule` per optimized frame (stored on the frame, whose
  buffer is immutable once it enters the frame cache);
* every uop — pre-rename or frame — gets one flat tuple of the same
  layout, so a single block kernel, ``PipelineModel._schedule_block``,
  schedules a whole fetch block per call: window wait, dependence scan,
  functional-unit issue, D-cache latency, store recording and in-order
  retirement run inline over the block, with no per-uop method call;
* frame slots use dense lists indexed by slot number instead of the
  original per-instance ``slot_values``/``slot_flags`` dicts.

Schedules are built only here, by the sequencers' builder: every
:class:`~repro.timing.pipeline.FetchBlock` arrives at the model carrying
its own (the stream's flat tuple list, windowed by the block, for an
ICache or trace-cache block; the frame's :class:`FrameSchedule` for a
frame block), and the model derives none.

The contract is **cycle identity**: scheduling from templates must produce
the same :class:`~repro.timing.pipeline.SimResult` as the reference
object-walking path for every block stream.  ``PipelineModel`` keeps the
reference implementation selectable (``scheduling="reference"``) behind
its one scheduling fork, and the golden A/B test
(`tests/timing/test_schedule_ab.py`) pins the equivalence on real
workloads and on scripted streams that drive the model's table prunes.

Schedule tuple layout::

    (fu, regs, slots, reads_flags, flags_src, kind, latency, dst, slot,
     writes_flags, size)

``regs`` are the architectural registers the uop reads (a pre-rename
uop's sources, a frame uop's live-ins) and ``slots`` the frame slots it
reads (always empty for a pre-rename uop).  A pre-rename uop writes
register ``dst`` and, with ``writes_flags``, the architectural flags; its
``slot`` and ``flags_src`` are ``None``.  A frame uop writes slot
``slot`` (and that slot's flags) and reads its flags from slot
``flags_src``, or from the architectural flags when that is ``None``;
its ``dst`` is ``None``.

``kind`` is 0 for ALU ops, 1 for loads and 2 for stores.  ``latency`` is
the fixed cycle count: the op's latency for ALU ops, an L1 hit for loads
(replaced by the D-cache's answer when the address is known) and 1 for
stores.
"""

from __future__ import annotations

from repro.optimizer.optuop import DefRef, OptUop
from repro.timing.config import ProcessorConfig
from repro.uops.uop import Uop, UopOp

#: ``kind`` codes in schedule tuples.
KIND_ALU = 0
KIND_LOAD = 1
KIND_STORE = 2

_COMPLEX_OPS = (UopOp.MUL, UopOp.DIVQ, UopOp.DIVR)


class FrameSchedule:
    """Static dispatch/schedule template of one optimized frame.

    Built once per frame (after optimization, when the buffer is final)
    and cached on ``frame.sched_template``; every dynamic dispatch then
    reuses the kept-uop list, schedule tuples, memory-uop positions, and
    live-out commit plan without walking the buffer again.
    """

    __slots__ = (
        "kept",
        "sched",
        "nslots",
        "live_out_plan",
        "flags_out_slot",
        "mem_positions",
        "fire_addresses",
        "fetched_loads",
        "raw_uops",
        "raw_loads",
        "unsafe_stores",
    )

    def __init__(
        self,
        kept: list[OptUop],
        sched: list[tuple],
        live_out_plan: tuple = (),
        flags_out_slot: int | None = None,
        mem_positions: tuple = (),
        fire_addresses: list | None = None,
        fetched_loads: int = 0,
        raw_uops: int = 0,
        raw_loads: int = 0,
        unsafe_stores: tuple = (),
    ) -> None:
        self.kept = kept
        self.sched = sched
        #: ``(arch_reg, slot)`` pairs: frame-exit registers bound to a
        #: slot's value (LiveIn bindings leave availability unchanged).
        self.live_out_plan = live_out_plan
        #: slot whose flag output the frame publishes at exit, or None
        #: when the frame leaves the outer flags availability unchanged
        #: (no kept uop writes the live-out flags slot).
        self.flags_out_slot = flags_out_slot
        #: size of the dense slot lists covering every slot referenced.
        self.nslots = _slot_span(sched, live_out_plan, flags_out_slot)
        #: ``(position, uop)`` pairs of the kept memory uops.
        self.mem_positions = mem_positions
        #: construction-time addresses, used by firing dispatches.
        self.fire_addresses = fire_addresses if fire_addresses is not None else []
        self.fetched_loads = fetched_loads
        #: uops and loads of the frame before optimization.
        self.raw_uops = raw_uops
        self.raw_loads = raw_loads
        #: kept stores marked unsafe, in frame order: the only uops the
        #: commit-time alias check has to look at.
        self.unsafe_stores = unsafe_stores


class ScheduleBuilder:
    """Builds and caches schedule templates for one processor config.

    Latencies are resolved against the config at build time, so the
    builder must share its :class:`ProcessorConfig` with the pipeline
    model consuming its templates (the sequencers and the model are
    constructed from the same config object).
    """

    def __init__(self, config: ProcessorConfig) -> None:
        self.config = config

    # ------------------------------------------------------------ uops

    def _fu_and_latency(self, op: UopOp) -> tuple[str, int, int]:
        """(fu class, kind code, fixed latency) of an opcode."""
        if op is UopOp.LOAD:
            return "load", KIND_LOAD, self.config.dcache.hit_latency
        if op is UopOp.STORE:
            return "store", KIND_STORE, 1
        if op is UopOp.MUL:
            return "complex", KIND_ALU, self.config.mul_latency
        if op in (UopOp.DIVQ, UopOp.DIVR):
            return "complex", KIND_ALU, self.config.div_latency
        return "simple", KIND_ALU, 1

    def dyn_sched(self, uop: Uop) -> tuple:
        """Schedule tuple of one pre-rename uop (static fields only)."""
        fu, kind, latency = self._fu_and_latency(uop.op)
        regs = tuple(
            int(r)
            for r in (uop.src_a, uop.src_b, uop.src_data)
            if r is not None
        )
        return (
            fu,
            regs,
            (),
            uop.reads_flags,
            None,
            kind,
            latency,
            int(uop.dst) if uop.dst is not None else None,
            None,
            uop.writes_flags,
            uop.size,
        )

    def opt_sched(self, uop: OptUop) -> tuple:
        """Schedule tuple of one remapped frame uop."""
        fu, kind, latency = self._fu_and_latency(uop.op)
        operands = [operand for _, operand in uop.operands()]
        return (
            fu,
            tuple(int(o.reg) for o in operands if not isinstance(o, DefRef)),
            tuple(o.slot for o in operands if isinstance(o, DefRef)),
            uop.reads_flags,
            uop.flags_src,
            kind,
            latency,
            None,
            uop.slot,
            uop.writes_flags,
            uop.size,
        )

    # ---------------------------------------------------------- streams

    def line_schedule(self, injected) -> list[tuple]:
        """The flat schedule of an injected stream: one tuple per uop,
        parallel to ``injected.uops``.

        Built once per latency table (the only config fields a pre-rename
        tuple depends on) and kept on the stream, so every cell over the
        stream with the same table shares one list.  All instances of a
        static uop share its one tuple.
        """
        config = self.config
        key = (config.dcache.hit_latency, config.mul_latency, config.div_latency)
        sched = injected.sched.get(key)
        if sched is None:
            # id() keys are safe: the stream holds every uop meanwhile.
            memo: dict[int, tuple] = {}
            sched = []
            for uop in injected.uops:
                entry = memo.get(id(uop))
                if entry is None:
                    entry = memo[id(uop)] = self.dyn_sched(uop)
                sched.append(entry)
            injected.sched[key] = sched
        return sched

    # ----------------------------------------------------------- frames

    def frame_schedule(self, frame) -> FrameSchedule:
        """Cached schedule template of an optimized frame."""
        cached = frame.sched_template
        if cached is not None:
            return cached
        buffer = frame.buffer
        kept = [u for u in buffer.uops if u.valid]
        sched = [self.opt_sched(u) for u in kept]
        live_out_plan = tuple(
            (int(reg), operand.slot)
            for reg, operand in buffer.live_out.items()
            if isinstance(operand, DefRef)
        )
        flags_out_slot = None
        live_flags = buffer.flags_live_out_slot
        if live_flags is not None:
            for uop in kept:
                if uop.slot == live_flags and uop.writes_flags:
                    flags_out_slot = live_flags
                    break
        template = FrameSchedule(
            kept=kept,
            sched=sched,
            live_out_plan=live_out_plan,
            flags_out_slot=flags_out_slot,
            mem_positions=tuple(
                (i, u) for i, u in enumerate(kept) if u.is_mem
            ),
            fire_addresses=[
                u.observed_address if u.is_mem else None for u in kept
            ],
            fetched_loads=sum(1 for u in kept if u.is_load),
            raw_uops=frame.raw_uop_count,
            raw_loads=frame.raw_load_count,
            unsafe_stores=tuple(u for u in kept if u.is_store and u.unsafe),
        )
        frame.sched_template = template
        return template


def _slot_span(sched, live_out_plan, flags_out_slot) -> int:
    """Dense-list size covering every slot a frame schedule references."""
    top = -1 if flags_out_slot is None else flags_out_slot
    for entry in sched:
        if entry[8] > top:
            top = entry[8]
        flags_src = entry[4]
        if flags_src is not None and flags_src > top:
            top = flags_src
        for slot in entry[2]:
            if slot > top:
                top = slot
    for _, slot in live_out_plan:
        if slot > top:
            top = slot
    return top + 1
