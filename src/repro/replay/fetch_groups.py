"""ICache fetch-group construction, shared by all sequencers.

An ICache fetch cycle delivers up to ``x86_decode_width`` (4) x86
instructions — at most ``fetch_width`` (8) uops — and breaks at a taken
control transfer (the classic fetch-bandwidth limit that frame and trace
caches exist to beat).
"""

from __future__ import annotations

from repro.trace.injector import InjectedTrace
from repro.timing.config import ProcessorConfig
from repro.timing.pipeline import FetchBlock


def is_taken_transfer(record) -> bool:
    """Did this instruction redirect fetch (taken branch / jump / call)?"""
    fallthrough = record.pc + record.instruction.length
    return record.instruction.is_branch and record.next_pc != fallthrough


def build_icache_block(
    injected: InjectedTrace,
    index: int,
    config: ProcessorConfig,
    sched: list,
    stop_probe=None,
) -> tuple[FetchBlock, int]:
    """Build one ICache fetch group starting at ``index``.

    The group only finds where it ends: the block is a window over the
    stream's uops, addresses and events and over ``sched``, the stream's
    flat schedule (``ScheduleBuilder.line_schedule``).  ``stop_probe(pc)``
    (if given) truncates the group before a PC the caller wants to fetch
    from elsewhere — e.g. a frame-cache hit.  Returns the block and the
    number of x86 instructions consumed.
    """
    records = injected.records
    offsets = injected.offsets
    lo = offsets[index]
    budget = lo + config.fetch_width
    first = records[index]
    byte_end = first.pc
    stop = min(index + config.x86_decode_width, len(records))
    position = index
    while position < stop:
        record = records[position]
        if position > index:
            if offsets[position + 1] > budget:
                break
            if stop_probe is not None and stop_probe(record.pc):
                break
        byte_end = max(byte_end, record.pc + record.instruction.length)
        position += 1
        if is_taken_transfer(record):
            break
    count = position - index
    return (
        FetchBlock(
            source="icache",
            uops=injected.uops,
            addresses=injected.addresses,
            lo=lo,
            hi=offsets[position],
            x86_count=count,
            sched=sched,
            byte_start=first.pc,
            byte_end=byte_end,
            branch_events=injected.events,
        ),
        count,
    )
