"""The Micro-Op Injector (paper §5.1.1).

Combines the trace reader and the x86-to-rePLay translator: each trace
record is paired with its instruction's decode flow, and the record's
memory addresses are carried beside the uops they belong to.  The result
is the continuous micro-operation stream the Timing Model and rePLay
Engine consume.

A decode flow is static: every instance of an instruction shares one
:class:`_Flow` holding the Translator's cached uop tuple, which is never
mutated.  Only the per-uop address tuple is built per instance; branch
directions and indirect targets are read from the record itself.  The
stream is parallel arrays indexed by trace position, so it costs one
list slot per array per record, not an object per record.
"""

from __future__ import annotations

from repro.trace.record import TraceRecord
from repro.trace.stream import DynamicTrace
from repro.uops.translate import Translator
from repro.uops.uop import Uop


class InjectionError(Exception):
    """Raised when a record's memory transactions don't match its decode flow."""


class _Flow:
    """Injection facts of one static instruction's decode flow."""

    __slots__ = ("uops", "mem_slots", "load_count", "mem_kinds", "no_addresses")

    def __init__(self, uops: tuple[Uop, ...]) -> None:
        self.uops = uops
        self.mem_slots = tuple(i for i, uop in enumerate(uops) if uop.is_mem)
        self.load_count = sum(1 for uop in uops if uop.is_load)
        self.mem_kinds = tuple(uops[i].is_store for i in self.mem_slots)
        self.no_addresses: tuple[None, ...] = (None,) * len(uops)

    def addresses(self, record: TraceRecord) -> tuple[int | None, ...]:
        """The record's memory addresses placed at this flow's memory uops."""
        mem_ops = record.mem_ops
        if not mem_ops and not self.mem_slots:
            return self.no_addresses
        if tuple([op.is_store for op in mem_ops]) != self.mem_kinds:
            _reject(record, self)
        slots = list(self.no_addresses)
        for slot, mem_op in zip(self.mem_slots, mem_ops):
            slots[slot] = mem_op.address
        return tuple(slots)


class InjectedTrace:
    """A trace's injected stream as parallel arrays, one entry per record.

    ``records[i]`` is the trace's own record (the trace's list, not a
    copy), ``flows[i]`` its instruction's shared decode flow,
    ``addresses[i]`` this instance's per-uop memory addresses (``None``
    for non-memory uops) and ``pcs[i]`` its PC, for path matching.  The
    totals are counted while injecting.
    """

    def __init__(self, records: list[TraceRecord], flows: list[_Flow],
                 addresses: list[tuple[int | None, ...]], uop_count: int,
                 load_count: int) -> None:
        self.records = records
        self.flows = flows
        self.addresses = addresses
        self.pcs: list[int] = [record.pc for record in records]
        self.x86_count = len(records)
        self.uop_count = uop_count
        self.load_count = load_count
        #: the frame constructor's closed regions over this stream, per
        #: config (``repro.replay.constructor.closed_regions``): computed
        #: once and dropped with the stream.
        self.regions: dict = {}

    def __len__(self) -> int:
        return self.x86_count

    @property
    def uops_per_x86(self) -> float:
        """Observed expansion ratio (paper reports 1.4)."""
        return self.uop_count / self.x86_count if self.x86_count else 0.0


class MicroOpInjector:
    """Pairs trace records with their static decode flows."""

    def __init__(self) -> None:
        self.translator = Translator()
        self._flows: dict[int, _Flow] = {}

    def _flow(self, instruction) -> _Flow:
        flow = self._flows.get(instruction.address)
        if flow is None:
            flow = _Flow(self.translator.translate(instruction))
            self._flows[instruction.address] = flow
        return flow

    def inject(self, record: TraceRecord) -> tuple[_Flow, tuple[int | None, ...]]:
        """Decode one record: its flow and this instance's per-uop addresses."""
        flow = self._flow(record.instruction)
        return flow, flow.addresses(record)

    def inject_trace(self, trace: DynamicTrace | list[TraceRecord]) -> InjectedTrace:
        """Inject a whole trace (or record list); the result carries its own totals."""
        records = trace.records if isinstance(trace, DynamicTrace) else trace
        known = self._flows
        flows: list[_Flow] = []
        addresses: list[tuple[int | None, ...]] = []
        uops = loads = 0
        for record in records:
            flow = known.get(record.instruction.address)
            if flow is None:
                flow = self._flow(record.instruction)
            flows.append(flow)
            addresses.append(flow.addresses(record))
            uops += len(flow.uops)
            loads += flow.load_count
        return InjectedTrace(records, flows, addresses, uops, loads)


def inject_once(trace: DynamicTrace) -> InjectedTrace:
    """The trace's injected stream, built on first use and kept on the trace.

    The stream lives exactly as long as its trace, so every cell run over
    one trace object shares one injection however the cells are
    ordered.  A failed injection caches nothing.
    """
    injected = trace.injected
    if injected is None:
        injected = trace.injected = MicroOpInjector().inject_trace(trace)
    return injected


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
