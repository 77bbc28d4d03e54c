"""The Micro-Op Injector (paper §5.1.1).

Combines the trace reader and the x86-to-rePLay translator: each trace
record is paired with its instruction's decode flow, and the record's
memory addresses are carried beside the uops they belong to.  The result
is the continuous micro-operation stream the Timing Model and rePLay
Engine consume.

A decode flow is static: every instance of an instruction shares the
Translator's cached uop tuple, which is never mutated.  Only the
per-uop address tuple is built per instance; branch directions and
indirect targets are read from the record itself.
"""

from __future__ import annotations

from repro.trace.record import TraceRecord
from repro.trace.stream import DynamicTrace
from repro.uops.translate import Translator
from repro.uops.uop import Uop


class InjectionError(Exception):
    """Raised when a record's memory transactions don't match its decode flow."""


class InjectedInstruction:
    """One x86 instruction instance: its record, shared static uops, and
    the per-uop memory addresses (``None`` for non-memory uops)."""

    __slots__ = ("record", "uops", "addresses")

    def __init__(
        self,
        record: TraceRecord,
        uops: tuple[Uop, ...],
        addresses: tuple[int | None, ...],
    ) -> None:
        self.record = record
        self.uops = uops
        self.addresses = addresses


class InjectedTrace(list):
    """A trace's injected instructions and their totals, counted while injecting."""

    x86_count = 0
    uop_count = 0
    load_count = 0

    def __init__(self, instructions=()) -> None:
        super().__init__(instructions)
        #: the record PCs in stream order, for path matching.
        self.pcs: list[int] = [instr.record.pc for instr in self]
        #: the frame constructor's closed regions over this stream, per
        #: config (``repro.replay.constructor.closed_regions``): computed
        #: once and dropped with the stream.
        self.regions: dict = {}

    @property
    def uops_per_x86(self) -> float:
        """Observed expansion ratio (paper reports 1.4)."""
        return self.uop_count / self.x86_count if self.x86_count else 0.0


class _Flow:
    """Injection facts of one static instruction's decode flow."""

    __slots__ = ("uops", "mem_slots", "load_count", "mem_kinds", "no_addresses")

    def __init__(self, uops: tuple[Uop, ...]) -> None:
        self.uops = uops
        self.mem_slots = tuple(i for i, uop in enumerate(uops) if uop.is_mem)
        self.load_count = sum(1 for uop in uops if uop.is_load)
        self.mem_kinds = tuple(uops[i].is_store for i in self.mem_slots)
        self.no_addresses: tuple[None, ...] = (None,) * len(uops)


class MicroOpInjector:
    """Pairs trace records with their static decode flows."""

    def __init__(self) -> None:
        self.translator = Translator()
        self.x86_count = 0
        self.uop_count = 0
        self.load_count = 0
        self._flows: dict[int, _Flow] = {}

    def inject(self, record: TraceRecord) -> InjectedInstruction:
        """Decode one record; carries its memory addresses beside the uops."""
        instruction = record.instruction
        flow = self._flows.get(instruction.address)
        if flow is None:
            flow = _Flow(self.translator.translate(instruction))
            self._flows[instruction.address] = flow
        mem_ops = record.mem_ops
        if not flow.mem_slots and not mem_ops:
            addresses = flow.no_addresses
        else:
            if tuple(op.is_store for op in mem_ops) != flow.mem_kinds:
                _reject(record, flow)
            slots = list(flow.no_addresses)
            for slot, mem_op in zip(flow.mem_slots, mem_ops):
                slots[slot] = mem_op.address
            addresses = tuple(slots)
        self.x86_count += 1
        self.uop_count += len(flow.uops)
        self.load_count += flow.load_count
        return InjectedInstruction(record, flow.uops, addresses)

    def inject_trace(self, trace: DynamicTrace) -> InjectedTrace:
        """Inject a whole trace; the result carries its own totals."""
        x86, uops, loads = self.x86_count, self.uop_count, self.load_count
        injected = InjectedTrace(map(self.inject, trace))
        injected.x86_count = self.x86_count - x86
        injected.uop_count = self.uop_count - uops
        injected.load_count = self.load_count - loads
        return injected


#: ``(trace, stream)`` of the last trace :func:`inject_once` injected.
#: Holding the trace keeps its ``id`` from being reused by another.
_memo: tuple = ()


def inject_once(trace: DynamicTrace) -> InjectedTrace:
    """Inject ``trace``, or return its stream if it was the last one.

    The figure matrices run a workload's cells back to back, so one entry
    catches the reuse.  It is dropped before the next injection: at most
    one stream is held, and a failed injection leaves none.
    """
    global _memo
    if not (_memo and _memo[0] is trace):
        _memo = ()
        _memo = (trace, MicroOpInjector().inject_trace(trace))
    return _memo[1]


def _reject(record: TraceRecord, flow: _Flow) -> None:
    """Raise the error for the first mismatch between the decode flow's
    memory uops and the record's transactions, in decode order."""
    mem_ops = record.mem_ops
    for index, is_store in enumerate(flow.mem_kinds):
        if index >= len(mem_ops):
            raise InjectionError(
                f"decode flow of {record.instruction} expects more "
                f"memory transactions than the trace recorded"
            )
        if mem_ops[index].is_store != is_store:
            raise InjectionError(
                f"memory transaction kind mismatch in {record.instruction}"
            )
    raise InjectionError(
        f"decode flow of {record.instruction} used {len(flow.mem_kinds)} "
        f"memory transactions but the trace recorded {len(mem_ops)}"
    )
