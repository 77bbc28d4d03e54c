"""ICache fetch-group construction, shared by all sequencers.

An ICache fetch cycle delivers up to ``x86_decode_width`` (4) x86
instructions — at most ``fetch_width`` (8) uops — and breaks at a taken
control transfer (the classic fetch-bandwidth limit that frame and trace
caches exist to beat).
"""

from __future__ import annotations

from repro.trace.injector import InjectedTrace
from repro.timing.config import ProcessorConfig
from repro.timing.pipeline import _NO_EVENTS, BranchEvent, FetchBlock


def event_from_decode(decode, record) -> BranchEvent | None:
    """Build the prediction event for one dynamic instruction instance.

    ``decode`` (from ``ScheduleBuilder.instr_decode``) supplies the static
    facts: event kind and control-uop offset.  The outcome, target
    and return address come from the dynamic ``record``.  A block keys
    the event by the instruction's first uop position plus
    ``decode.event_offset``.
    """
    kind = decode.event_kind
    if kind is None:
        return None
    if kind == "cond":
        return BranchEvent(
            kind="cond",
            pc=record.pc,
            taken=bool(record.branch_taken),
            target=record.next_pc,
        )
    if kind in ("call", "callind"):
        return BranchEvent(
            kind=kind,
            pc=record.pc,
            target=record.next_pc,
            return_address=record.pc + record.instruction.length,
        )
    # 'ret' | 'jmpi'
    return BranchEvent(kind=kind, pc=record.pc, target=record.next_pc)


def is_taken_transfer(record) -> bool:
    """Did this instruction redirect fetch (taken branch / jump / call)?"""
    fallthrough = record.pc + record.instruction.length
    return record.instruction.is_branch and record.next_pc != fallthrough


def build_icache_block(
    injected: InjectedTrace,
    index: int,
    config: ProcessorConfig,
    builder,
    stop_probe=None,
) -> tuple[FetchBlock, int]:
    """Build one ICache fetch group starting at ``index``.

    ``builder`` (the caller's :class:`repro.timing.schedule.ScheduleBuilder`)
    supplies the group's schedule tuples and branch events from its
    per-instruction decode cache, so decode and branch-event
    classification run once per static instruction instead of once per
    fetch.  ``stop_probe(pc)`` (if given) truncates the group before a PC
    the caller wants to fetch from elsewhere — e.g. a frame-cache hit.
    Returns the block and the number of x86 instructions consumed.
    """
    records = injected.records
    uops: list = []
    addresses: list = []
    events: dict[int, BranchEvent] = {}
    sched: list = []
    first = records[index]
    byte_end = first.pc
    stop = min(index + config.x86_decode_width, len(records))
    position = index
    while position < stop:
        record = records[position]
        flow_uops = injected.flows[position].uops
        if position > index:
            if len(uops) + len(flow_uops) > config.fetch_width:
                break
            if stop_probe is not None and stop_probe(record.pc):
                break
        decode = builder.instr_decode(record.instruction, flow_uops)
        event = event_from_decode(decode, record)
        sched.extend(decode.sched)
        if event is not None:
            events[len(uops) + decode.event_offset] = event
        uops.extend(flow_uops)
        addresses.extend(injected.addresses[position])
        byte_end = max(byte_end, record.pc + record.instruction.length)
        position += 1
        if is_taken_transfer(record):
            break
    count = position - index
    return (
        FetchBlock(
            source="icache",
            uops=uops,
            addresses=addresses,
            x86_count=count,
            pc=first.pc,
            byte_start=first.pc,
            byte_end=byte_end,
            branch_events=events or _NO_EVENTS,
            sched=sched,
        ),
        count,
    )
