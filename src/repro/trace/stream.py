"""Dynamic trace container and summary statistics."""

from __future__ import annotations

from dataclasses import dataclass

from repro.trace.record import TraceRecord


@dataclass
class TraceStats:
    """Summary statistics over a dynamic trace (Table 1 analogue)."""

    x86_instructions: int
    loads: int
    stores: int
    conditional_branches: int
    taken_branches: int
    calls: int
    unique_pcs: int

    @property
    def taken_ratio(self) -> float:
        if not self.conditional_branches:
            return 0.0
        return self.taken_branches / self.conditional_branches


class DynamicTrace:
    """A dynamic x86 instruction trace, as read from a trace file.

    Thin wrapper over a list of :class:`TraceRecord` with random access
    (the sequencer peeks ahead to evaluate frame path matches) and
    summary statistics.
    """

    def __init__(self, records: list[TraceRecord], name: str = "trace") -> None:
        self.records = records
        self.name = name
        #: the ``InjectedTrace``, once ``inject_once`` has built it.
        self.injected = None

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index):
        return self.records[index]

    def __iter__(self):
        return iter(self.records)

    def stats(self) -> TraceStats:
        loads = stores = cond = taken = calls = 0
        pcs: set[int] = set()
        for record in self.records:
            pcs.add(record.pc)
            loads += len(record.loads)
            stores += len(record.stores)
            if record.is_conditional_branch:
                cond += 1
                if record.branch_taken:
                    taken += 1
            if record.instruction.mnemonic.value == "call":
                calls += 1
        return TraceStats(
            x86_instructions=len(self.records),
            loads=loads,
            stores=stores,
            conditional_branches=cond,
            taken_branches=taken,
            calls=calls,
            unique_pcs=len(pcs),
        )
