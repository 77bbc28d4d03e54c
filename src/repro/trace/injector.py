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


class _Flow:
    """Injection facts of one static instruction's decode flow."""

    __slots__ = ("uops", "mem_slots", "mem_kinds", "no_addresses")

    def __init__(self, uops: tuple[Uop, ...]) -> None:
        self.uops = uops
        self.mem_slots = tuple(i for i, uop in enumerate(uops) if uop.is_mem)
        self.mem_kinds = tuple(uops[i].is_store for i in self.mem_slots)
        self.no_addresses: tuple[None, ...] = (None,) * len(uops)


class MicroOpInjector:
    """Pairs trace records with their static decode flows."""

    def __init__(self) -> None:
        self.translator = Translator()
        self.x86_count = 0
        self.uop_count = 0
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
        return InjectedInstruction(record, flow.uops, addresses)

    def inject_trace(self, trace: DynamicTrace) -> list[InjectedInstruction]:
        """Inject a whole trace (convenience for tests and the harness)."""
        return [self.inject(record) for record in trace]

    @property
    def uops_per_x86(self) -> float:
        """Observed expansion ratio (paper reports 1.4)."""
        if not self.x86_count:
            return 0.0
        return self.uop_count / self.x86_count


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
