"""Shared test utilities: tiny program builders and frame factories."""

from __future__ import annotations

import hashlib

from repro.x86 import Assembler, Emulator
from repro.x86.instructions import Mnemonic
from repro.trace import DynamicTrace, MicroOpInjector
from repro.replay.frame import Frame
from repro.optimizer import FrameOptimizer, OptimizationBuffer
from repro.timing import BranchEvent, FetchBlock
from repro.timing.schedule import FrameSchedule, ScheduleBuilder
from repro.uops.uop import Uop, UReg
from repro.verify.frame_exec import execute_frame
from repro.verify.state import ArchState, initial_image
from repro.fuzz.campaign import derive_program_seed
from repro.fuzz.generator import GeneratorConfig, generate_program, render_program
from repro.fuzz.oracle import (
    CONSTRUCTOR,
    MAX_INSTRUCTIONS,
    VARIANTS,
    _construct_frames,
    variant_config,
)


def run_program(asm: Assembler, max_instructions: int = 100_000):
    """Assemble, emulate, and return (program, emulator, trace)."""
    program = asm.assemble()
    emulator = Emulator(program)
    trace = DynamicTrace(emulator.run(max_instructions))
    return program, emulator, trace


def inject(trace: DynamicTrace):
    """Decode a trace into its injected stream."""
    return MicroOpInjector().inject_trace(trace)


def region_frame(injected, start: int, count: int) -> Frame:
    """A frame over ``count`` injected instructions from ``start``,
    exiting where the last one went."""
    stop = start + count
    return Frame.from_region(injected, start, stop, injected.records[stop - 1].next_pc)



def instance_event(record) -> BranchEvent | None:
    """The prediction event of one record, built from the record alone;
    None for a non-branch or a direct JMP (no predictable transfer)."""
    instruction = record.instruction
    mnemonic = instruction.mnemonic
    pc, target = record.pc, record.next_pc
    if mnemonic is Mnemonic.JCC:
        return BranchEvent("cond", pc, bool(record.branch_taken), target)
    if mnemonic is Mnemonic.CALL:
        kind = "callind" if instruction.is_indirect else "call"
        return BranchEvent(kind, pc, True, target, pc + instruction.length)
    if mnemonic is Mnemonic.RET:
        return BranchEvent("ret", pc, True, target)
    if mnemonic is Mnemonic.JMP and instruction.is_indirect:
        return BranchEvent("jmpi", pc, True, target)
    return None


def retire_all(constructor, injected) -> list:
    """Retire a whole stream through ``constructor``; the frames it returns."""
    frames = (constructor.retire(injected, i) for i in range(len(injected)))
    return [frame for frame in frames if frame is not None]


def line_block(uops, config, pc=0x1000, events=None, x86_count=None) -> FetchBlock:
    """An ICache block of hand-built pre-rename uops (by default one x86
    instruction each), scheduled by a ``ScheduleBuilder`` of ``config``;
    ``events`` maps uop positions to their branch events."""
    builder = ScheduleBuilder(config)
    return FetchBlock(
        source="icache",
        uops=uops,
        addresses=[u.mem_address for u in uops],
        lo=0,
        hi=len(uops),
        x86_count=len(uops) if x86_count is None else x86_count,
        sched=[builder.dyn_sched(u) for u in uops],
        byte_start=pc,
        byte_end=pc + 4 * len(uops),
        branch_events=dict(events or {}),
    )


def frame_block(
    uops, config, x86_count=0, fires=False, addresses=None
) -> FetchBlock:
    """A frame block of hand-built frame uops with no frame behind it (so
    no live-out commit), scheduled by a ``ScheduleBuilder`` of ``config``.
    ``addresses`` default to the uops' observed addresses."""
    builder = ScheduleBuilder(config)
    if addresses is None:
        addresses = [u.observed_address for u in uops]
    return FetchBlock(
        source="frame",
        uops=uops,
        addresses=addresses,
        lo=0,
        hi=len(uops),
        x86_count=x86_count,
        sched=FrameSchedule(list(uops), [builder.opt_sched(u) for u in uops]),
        fires=fires,
    )


def buffer_from_uops(uops: list[Uop], block_starts: list[int] | None = None
                     ) -> OptimizationBuffer:
    """Build an optimization buffer directly from a dyn-uop list.

    Each uop is treated as its own x86 instruction; memory keys are not
    needed for optimizer-only tests.
    """
    return OptimizationBuffer(
        uops,
        x86_indices=list(range(len(uops))),
        mem_keys=[None] * len(uops),
        block_starts=block_starts,
    )


#: SHA-256 of :func:`variant_outputs` over :func:`fuzz_frames` (1, 50)
#: with every frame freshly remapped.  Frozen value: any change to an
#: optimized frame under any oracle variant moves it.
OPTIMIZER_OUTPUT_DIGEST = (
    "e1cd97ba3edcb088d9cfebf05321a44a2ff3b7f45cc4adc356cd7cc0e5916b71"
)


#: SHA-256 of :func:`variant_outputs` over the 101 frames the default
#: constructor builds on the 14 seed-1 workloads, freshly remapped.
#: Unlike the fuzz frames, these hold JMP, JMPI and ASSERT_CMP uops, so
#: NOP removal and CP's indirect-jump rewrite are covered.  Frozen value.
WORKLOAD_OUTPUT_DIGEST = (
    "c8d4977051ce16b6daf1bc359bd90304589868ff30f126ab9db715d51a830ca2"
)


def fuzz_frames(campaign_seed: int, programs: int) -> list[Frame]:
    """Every frame the differential oracle constructs for the first
    ``programs`` programs of a fuzz campaign, in campaign order."""
    frames: list[Frame] = []
    for index in range(programs):
        genome = generate_program(
            derive_program_seed(campaign_seed, index), GeneratorConfig()
        )
        records = Emulator(render_program(genome)).run(MAX_INSTRUCTIONS)
        injected = MicroOpInjector().inject_trace(records)
        frames.extend(_construct_frames(injected, CONSTRUCTOR))
    return frames


def remap(frame: Frame) -> OptimizationBuffer:
    """A fresh optimization buffer for a frame, leaving the frame as is."""
    return OptimizationBuffer(
        frame.dyn_uops,
        frame.x86_indices,
        frame.mem_keys,
        block_starts=frame.block_starts,
    )


def buffer_output(buffer: OptimizationBuffer) -> str:
    """Everything an optimized buffer hands on: its valid uops (with
    unsafe-store guards), the frame and block-boundary live-outs and the
    flags live-out slots."""

    def bindings(live_out) -> str:
        return ",".join(
            f"{reg.name}={operand}"
            for reg, operand in sorted(live_out.items(), key=lambda kv: kv[0].name)
        )

    lines = [buffer.dump()]
    lines.extend(
        f"guards {slot} {uop.unsafe_guards}"
        for slot, uop in enumerate(buffer.uops)
        if uop.valid and uop.unsafe_guards
    )
    lines.append(f"live_out {bindings(buffer.live_out)}")
    lines.append(
        f"flags {buffer.flags_live_out_slot} {buffer.flags_live_out_written}"
    )
    lines.extend(
        f"block {b.end_x86_index} {bindings(b.live_out)} "
        f"flags {b.flags_slot} {b.flags_written}"
        for b in buffer.block_boundaries
    )
    return "\n".join(lines)


def variant_outputs(frames: list[Frame], buffer_of) -> list[str]:
    """Optimize ``buffer_of(frame)`` for every frame under every oracle
    variant; one :func:`buffer_output` per (variant, frame)."""
    outputs = []
    for variant in VARIANTS:
        optimizer = FrameOptimizer(variant_config(variant))
        for frame in frames:
            buffer = buffer_of(frame)
            optimizer.optimize(buffer)
            outputs.append(f"{variant}\n{buffer_output(buffer)}")
    return outputs


def output_digest(outputs: list[str]) -> str:
    """SHA-256 over a sequence of :func:`buffer_output` strings."""
    digest = hashlib.sha256()
    for text in outputs:
        digest.update(text.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def assert_decode_flows_match(program, records) -> None:
    """Replay every record's decode flow through ``execute_frame``.

    Each instruction's uops run as a one-instruction frame against the
    running architectural state; its register writes, flags and stores
    must equal the trace record's (the State Verifier's decode-flow
    check, paper §5.1.3).  A flow reading a temporary that an earlier
    instruction defined fails to build its buffer.
    """
    machine = ArchState(image=initial_image(program))
    buffers: dict[int, OptimizationBuffer] = {}  # one per static instruction
    injected = MicroOpInjector().inject_trace(records)
    offsets = injected.offsets
    for position, record in enumerate(injected.records):
        buffer = buffers.get(record.pc)
        if buffer is None:
            uops = injected.uops[offsets[position] : offsets[position + 1]]
            n = len(uops)
            buffer = OptimizationBuffer(uops, [0] * n, [None] * n)
            buffers[record.pc] = buffer
        outcome = execute_frame(
            buffer,
            machine.live_in_regs(),
            machine.live_in_flags(),
            machine.read_byte,
        )
        for reg, expected in record.reg_writes:
            got = outcome.final_regs[UReg(reg)]
            assert got == expected, (
                f"{record.instruction} at {record.pc:#x}: {UReg(reg).name} "
                f"= {got:#x}, trace says {expected:#x}"
            )
        if record.flags_after is not None:
            assert outcome.final_flags == record.flags_after, (
                f"{record.instruction} at {record.pc:#x}: flags "
                f"{outcome.final_flags:#x} != {record.flags_after:#x}"
            )
        expected_stores = [(m.address, m.size, m.data) for m in record.stores]
        assert outcome.stores == expected_stores, (
            f"{record.instruction} at {record.pc:#x}: stored "
            f"{outcome.stores} != {expected_stores}"
        )
        machine.apply_outcome(outcome)
