"""ICache fetch-group construction, shared by all sequencers.

An ICache fetch cycle delivers up to ``x86_decode_width`` (4) x86
instructions — at most ``fetch_width`` (8) uops — and breaks at a taken
control transfer (the classic fetch-bandwidth limit that frame and trace
caches exist to beat).
"""

from __future__ import annotations

from repro.trace.injector import InjectedInstruction
from repro.uops.uop import UopOp
from repro.x86.instructions import Mnemonic
from repro.timing.config import ProcessorConfig
from repro.timing.pipeline import BranchEvent, FetchBlock


def branch_event_for(
    instr: InjectedInstruction, uop_offset: int
) -> BranchEvent | None:
    """Build the prediction event for an instruction's control uop."""
    record = instr.record
    mnemonic = record.instruction.mnemonic
    control_index = None
    for i, uop in enumerate(instr.uops):
        if uop.op in (UopOp.BR, UopOp.JMP, UopOp.JMPI):
            control_index = uop_offset + i
            break
    if control_index is None:
        return None
    if mnemonic is Mnemonic.JCC:
        return BranchEvent(
            uop_index=control_index,
            kind="cond",
            pc=record.pc,
            taken=bool(record.branch_taken),
            target=record.next_pc,
        )
    if mnemonic is Mnemonic.CALL:
        return_address = record.pc + record.instruction.length
        kind = "callind" if record.instruction.is_indirect else "call"
        return BranchEvent(
            uop_index=control_index,
            kind=kind,
            pc=record.pc,
            target=record.next_pc,
            return_address=return_address,
        )
    if mnemonic is Mnemonic.RET:
        return BranchEvent(
            uop_index=control_index, kind="ret", pc=record.pc, target=record.next_pc
        )
    if mnemonic is Mnemonic.JMP and record.instruction.is_indirect:
        return BranchEvent(
            uop_index=control_index, kind="jmpi", pc=record.pc, target=record.next_pc
        )
    return None  # direct JMP: next-line predicted, no event


def event_from_decode(decode, record, uop_base: int) -> BranchEvent | None:
    """Build a prediction event from cached static decode facts.

    Equivalent to :func:`branch_event_for` (event kind and control-uop
    offset are static per instruction; outcome, target, and return
    address come from the dynamic ``record``) without re-scanning the
    instruction's uops per dynamic instance.
    """
    kind = decode.event_kind
    if kind is None:
        return None
    uop_index = uop_base + decode.event_offset
    if kind == "cond":
        return BranchEvent(
            uop_index=uop_index,
            kind="cond",
            pc=record.pc,
            taken=bool(record.branch_taken),
            target=record.next_pc,
        )
    if kind in ("call", "callind"):
        return BranchEvent(
            uop_index=uop_index,
            kind=kind,
            pc=record.pc,
            target=record.next_pc,
            return_address=record.pc + record.instruction.length,
        )
    # 'ret' | 'jmpi'
    return BranchEvent(
        uop_index=uop_index, kind=kind, pc=record.pc, target=record.next_pc
    )


def is_taken_transfer(instr: InjectedInstruction) -> bool:
    """Did this instruction redirect fetch (taken branch / jump / call)?"""
    record = instr.record
    fallthrough = record.pc + record.instruction.length
    return record.instruction.is_branch and record.next_pc != fallthrough


def build_icache_block(
    injected: list[InjectedInstruction],
    index: int,
    config: ProcessorConfig,
    stop_probe=None,
    builder=None,
) -> tuple[FetchBlock, int]:
    """Build one ICache fetch group starting at ``index``.

    ``stop_probe(pc)`` (if given) truncates the group before a PC the
    caller wants to fetch from elsewhere — e.g. a frame-cache hit.
    ``builder`` (a :class:`repro.timing.schedule.ScheduleBuilder`, if
    given) attaches the group's schedule tuples from its per-instruction
    decode cache, so decode and branch-event classification run once per
    static instruction instead of once per fetch.
    Returns the block and the number of x86 instructions consumed.
    """
    uops: list = []
    addresses: list = []
    events: list[BranchEvent] = []
    sched: list | None = [] if builder is not None else None
    count = 0
    first = injected[index].record
    byte_start = first.pc
    byte_end = first.pc
    while count < config.x86_decode_width and index + count < len(injected):
        instr = injected[index + count]
        if count and len(uops) + len(instr.uops) > config.fetch_width:
            break
        if count and stop_probe is not None and stop_probe(instr.record.pc):
            break
        record = instr.record
        if builder is not None:
            decode = builder.instr_decode(instr)
            event = event_from_decode(decode, record, len(uops))
            sched.extend(decode.sched)
        else:
            event = branch_event_for(instr, len(uops))
        if event is not None:
            events.append(event)
        uops.extend(instr.uops)
        addresses.extend(instr.addresses)
        byte_end = max(byte_end, record.pc + record.instruction.length)
        count += 1
        if is_taken_transfer(instr):
            break
    return (
        FetchBlock(
            source="icache",
            uops=uops,
            addresses=addresses,
            x86_count=count,
            pc=first.pc,
            byte_start=byte_start,
            byte_end=byte_end,
            branch_events=events,
            sched=sched,
        ),
        count,
    )
