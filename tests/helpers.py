"""Shared test utilities: tiny program builders and frame factories."""

from __future__ import annotations

from repro.x86 import Assembler, Emulator
from repro.trace import DynamicTrace, MicroOpInjector
from repro.replay import FrameConstructor
from repro.replay.frame import Frame
from repro.optimizer import OptimizationBuffer
from repro.uops.uop import Uop


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
