"""The Micro-Op Injector (paper §5.1.1).

Combines the trace reader and the x86-to-rePLay translator: each trace
record is paired with its instruction's decode flow, and the record's
memory addresses are carried beside the uops they belong to.  The result
is the continuous micro-operation stream the Timing Model and rePLay
Engine consume.

A decode flow is static: every instance of an instruction shares one
:class:`_Flow` holding the Translator's cached uop tuple, which is never
mutated, and the facts of its predictable control transfer.  The stream
is flat: one list slot per uop for the shared uop and one for this
instance's address, a per-instruction offset into them, and one
:class:`~repro.timing.pipeline.BranchEvent` per predictable transfer,
built from the record's outcome.  Fetch blocks are windows over these
arrays, so nothing is rebuilt per fetch.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, compress
from operator import attrgetter

from repro.timing.pipeline import BranchEvent
from repro.trace.record import TraceRecord
from repro.trace.stream import DynamicTrace
from repro.uops.translate import Translator
from repro.uops.uop import Uop, UopOp
from repro.x86.instructions import Instruction, Mnemonic

_CONTROL_OPS = (UopOp.BR, UopOp.JMP, UopOp.JMPI)
#: The prediction event kind of a transfer, by (mnemonic, is_indirect).
_EVENT_KINDS = {
    (Mnemonic.JCC, False): "cond",
    (Mnemonic.CALL, False): "call",
    (Mnemonic.CALL, True): "callind",
    (Mnemonic.RET, True): "ret",
    (Mnemonic.JMP, True): "jmpi",
}
_UOPS = attrgetter("uops")
_EVENT_KIND = attrgetter("event_kind")
_LOAD_COUNT = attrgetter("load_count")


class InjectionError(Exception):
    """Raised when a record's memory transactions don't match its decode flow."""


class _Flow:
    """Injection facts of one static instruction's decode flow.

    ``event_kind`` names the prediction event of its control uop, at
    ``event_offset`` in the flow; it is None when the instruction has no
    predictable transfer (a non-branch or a direct JMP).
    """

    __slots__ = (
        "uops", "mem_slots", "load_count", "mem_kinds", "no_addresses",
        "event_kind", "event_offset",
    )

    def __init__(self, instruction: Instruction, uops: tuple[Uop, ...]) -> None:
        self.uops = uops
        self.mem_slots = tuple(i for i, uop in enumerate(uops) if uop.is_mem)
        self.load_count = sum(1 for uop in uops if uop.is_load)
        self.mem_kinds = tuple(uops[i].is_store for i in self.mem_slots)
        self.no_addresses: tuple[None, ...] = (None,) * len(uops)
        controls = [i for i, uop in enumerate(uops) if uop.op in _CONTROL_OPS]
        kind = _EVENT_KINDS.get((instruction.mnemonic, instruction.is_indirect))
        self.event_kind = kind if controls else None
        self.event_offset = controls[0] if controls else 0

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

    def event(self, record: TraceRecord) -> BranchEvent:
        """This instance's prediction event (``event_kind`` must be set):
        the outcome, target and return address come from the record."""
        kind = self.event_kind
        if kind == "cond":
            return BranchEvent(kind, record.pc, bool(record.branch_taken), record.next_pc)
        if kind == "call" or kind == "callind":
            return BranchEvent(
                kind, record.pc, True, record.next_pc,
                record.pc + record.instruction.length,
            )
        return BranchEvent(kind, record.pc, True, record.next_pc)  # ret, jmpi


class InjectedTrace:
    """A trace's injected stream as flat arrays.

    Per instruction: ``records[i]`` is the trace's own record (the
    trace's list, not a copy) and ``pcs[i]`` its PC, for path matching.
    Per uop: ``uops[k]`` is the shared static uop and ``addresses[k]``
    this instance's memory address (``None`` for non-memory uops).
    Instruction ``i``'s uops are ``uops[offsets[i]:offsets[i + 1]]``.
    ``events`` maps the position of each predictable transfer's control
    uop to its :class:`~repro.timing.pipeline.BranchEvent`.
    """

    def __init__(self, records: list[TraceRecord], uops: list[Uop],
                 addresses: list[int | None], offsets: array,
                 events: dict[int, BranchEvent], load_count: int) -> None:
        self.records = records
        self.pcs: list[int] = [record.pc for record in records]
        self.uops = uops
        self.addresses = addresses
        self.offsets = offsets
        self.events = events
        self.x86_count = len(records)
        self.uop_count = len(uops)
        self.load_count = load_count
        #: the flat schedule-tuple list per latency table
        #: (``repro.timing.schedule.ScheduleBuilder.line_schedule``).
        self.sched: dict[tuple, list] = {}
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
    """Pairs trace records with their static decode flows.

    Flows are keyed by the ``id`` of their ``Instruction`` object, not its
    address, so one injector serves traces of different programs (the
    translator's cache keeps each object, and so its ``id``, alive).
    """

    def __init__(self) -> None:
        self.translator = Translator()
        self._flows: dict[int, _Flow] = {}

    def _flow(self, instruction: Instruction) -> _Flow:
        flow = self._flows.get(id(instruction))
        if flow is None:
            flow = _Flow(instruction, self.translator.translate(instruction))
            self._flows[id(instruction)] = flow
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
        append = flows.append
        for record in records:
            flow = known.get(id(record.instruction))
            if flow is None:
                flow = self._flow(record.instruction)
            append(flow)
        # The flat arrays are assembled from the flows at C speed; only
        # the addresses and the predictable transfers visit the records.
        uops = list(chain.from_iterable(map(_UOPS, flows)))
        offsets = array("q", accumulate(map(len, map(_UOPS, flows)), initial=0))
        addresses = list(chain.from_iterable(map(_Flow.addresses, flows, records)))
        events: dict[int, BranchEvent] = {}
        for position in compress(range(len(flows)), map(_EVENT_KIND, flows)):
            flow = flows[position]
            events[offsets[position] + flow.event_offset] = flow.event(records[position])
        loads = sum(map(_LOAD_COUNT, flows))
        return InjectedTrace(records, uops, addresses, offsets, events, loads)


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
