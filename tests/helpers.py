"""Shared test utilities: tiny program builders and frame factories."""

from __future__ import annotations

from repro.x86 import Assembler, Emulator
from repro.trace import DynamicTrace, MicroOpInjector
from repro.replay import FrameConstructor
from repro.replay.frame import Frame
from repro.optimizer import OptimizationBuffer
from repro.uops.uop import Uop, UReg
from repro.verify.frame_exec import execute_frame
from repro.verify.state import FrameMachine, initial_image


def run_program(asm: Assembler, max_instructions: int = 100_000):
    """Assemble, emulate, and return (program, emulator, trace)."""
    program = asm.assemble()
    emulator = Emulator(program)
    trace = DynamicTrace(emulator.run(max_instructions))
    return program, emulator, trace


def inject(trace: DynamicTrace):
    """Decode a trace into injected instructions."""
    return MicroOpInjector().inject_trace(trace)


def frame_from_region(injected, start: int, count: int) -> Frame:
    """Frame-ify a region of injected instructions and build its buffer."""
    region = injected[start : start + count]
    frame = FrameConstructor().build_frame(region, region[-1].record.next_pc)
    frame.build_buffer()
    return frame


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


def assert_decode_flows_match(program, records) -> None:
    """Replay every record's decode flow through ``execute_frame``.

    Each instruction's uops run as a one-instruction frame against the
    running architectural state; its register writes, flags and stores
    must equal the trace record's (the State Verifier's decode-flow
    check, paper §5.1.3).  A flow reading a temporary that an earlier
    instruction defined fails to build its buffer.
    """
    start = Emulator(program)
    machine = FrameMachine(
        start.reg_snapshot(), start.flags_word(), initial_image(program, start)
    )
    buffers: dict[int, OptimizationBuffer] = {}  # one per static instruction
    for instr in MicroOpInjector().inject_trace(records):
        record = instr.record
        buffer = buffers.get(record.pc)
        if buffer is None:
            n = len(instr.uops)
            buffer = OptimizationBuffer(instr.uops, [0] * n, [None] * n)
            buffers[record.pc] = buffer
        outcome = execute_frame(
            buffer,
            machine.live_in_regs(),
            machine.live_in_flags(),
            machine.read_byte,
        )
        for reg, expected in record.reg_writes.items():
            got = outcome.final_regs[UReg(reg)]
            assert got == expected, (
                f"{record.instruction} at {record.pc:#x}: {reg.name} "
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
