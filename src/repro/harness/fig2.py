"""The paper's Figure 2 running example: a crafty procedure fragment.

Builds the PUSH/PUSH/MOV/MOV/XOR/MOV/OR/JZ + POP/POP/RET region, runs it
through the translator and the optimizer at each optimization scope, and
reports the uop counts — reproducing the paper's narrative that
frame-level scope removes seven of the seventeen micro-operations,
including two of the five loads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.x86 import Assembler, Cond, Emulator, Imm, Reg, mem
from repro.trace import DynamicTrace, MicroOpInjector
from repro.replay.frame import Frame
from repro.optimizer import FrameOptimizer, OptimizerConfig


def build_crafty_fragment():
    """Assemble the call site + procedure from Figure 2."""
    asm = Assembler()
    asm.mov(Reg.EBX, Imm(0x1234))
    asm.mov(Reg.EBP, Imm(0x5678))
    asm.push(Imm(0x42))  # second argument -> [ESP+10h] inside the callee
    asm.push(Imm(0x17))  # first argument  -> [ESP+0Ch]
    asm.call("func")
    asm.add(Reg.ESP, Imm(8))
    asm.ret()
    asm.label("func")
    asm.push(Reg.EBP)  # uops 01-02
    asm.push(Reg.EBX)  # uops 03-04
    asm.mov(Reg.ECX, mem(Reg.ESP, disp=0x0C))  # uop 05
    asm.mov(Reg.EBX, mem(Reg.ESP, disp=0x10))  # uop 06
    asm.xor(Reg.EAX, Reg.EAX)  # uop 07
    asm.mov(Reg.EDX, Reg.ECX)  # uop 08
    asm.or_(Reg.EDX, Reg.EBX)  # uop 09
    # In crafty the JZ skips a distinct block; the branch target must not
    # be the fall-through or the constructor (rightly) drops it as a
    # degenerate branch instead of converting it to an assertion.
    asm.jcc(Cond.Z, "zero_case")  # uop 10 (never taken on this trace)
    asm.pop(Reg.EBX)  # uops 11-12
    asm.pop(Reg.EBP)  # uops 13-14
    asm.ret()  # uops 15-17
    asm.label("zero_case")  # skipped block: gives the JZ a real target
    asm.mov(Reg.EAX, Imm(1))
    asm.ret()
    return asm.assemble()


def build_figure2_frame() -> Frame:
    """Construct the procedure region (PUSH EBP ... RET) as a raw frame."""
    program = build_crafty_fragment()
    trace = DynamicTrace(Emulator(program).run())
    injected = MicroOpInjector().inject_trace(trace)
    start = injected.pcs.index(program.labels["func"])
    stop = start + 11  # PUSH ... RET inclusive
    return Frame.from_region(
        injected, start, stop, injected.records[stop - 1].next_pc
    )


@dataclass
class ScopeResult:
    """Optimization outcome at one scope."""

    scope: str
    uops: int
    loads: int
    listing: str


def optimize_at_scopes() -> list[ScopeResult]:
    """Optimize the fragment at each of the paper's scopes."""
    results = []
    raw = build_figure2_frame()
    raw.build_buffer()
    results.append(
        ScopeResult(
            scope="unoptimized",
            uops=raw.uop_count,
            loads=raw.load_count,
            listing=raw.buffer.dump(),
        )
    )
    for scope in ("block", "inter", "frame"):
        frame = build_figure2_frame()
        buffer = frame.build_buffer()
        optimizer = FrameOptimizer(OptimizerConfig(scope=scope))
        frame.opt_result = optimizer.optimize(buffer)
        results.append(
            ScopeResult(
                scope=scope,
                uops=frame.uop_count,
                loads=frame.load_count,
                listing=buffer.dump(),
            )
        )
    return results


def figure2_report() -> str:
    """Human-readable Figure 2 walkthrough."""
    parts = ["Figure 2: optimization scope on the crafty fragment\n"]
    for result in optimize_at_scopes():
        parts.append(
            f"--- {result.scope}: {result.uops} uops, {result.loads} loads ---"
        )
        parts.append(result.listing)
        parts.append("")
    return "\n".join(parts)
