#!/usr/bin/env python3
"""Quickstart: build a tiny x86 program, watch rePLay optimize it.

Walks the full pipeline end to end:

1. assemble an x86-subset program with the library's assembler DSL;
2. execute it on the functional emulator to capture a dynamic trace;
3. decode the trace into rePLay micro-operations;
4. construct an atomic frame and run the optimization engine on it;
5. simulate the trace under the RP and RPO processor configurations.

Run with::

    python examples/quickstart.py
"""

from repro.x86 import Assembler, Cond, Emulator, Imm, Reg, mem
from repro.trace import DynamicTrace, MicroOpInjector
from repro.replay import Frame
from repro.optimizer import FrameOptimizer
from repro.harness import CONFIGS, run_experiment


def build_program():
    """A loop that sums an array through a small helper function."""
    asm = Assembler()
    asm.data_words(0x500000, list(range(1, 257)))
    asm.mov(Reg.ESI, Imm(0x500000))
    asm.mov(Reg.ECX, Imm(256))
    asm.xor(Reg.EAX, Reg.EAX)
    asm.label("loop")
    asm.push(Reg.ECX)
    asm.call("accumulate")
    asm.pop(Reg.ECX)
    asm.add(Reg.ESI, Imm(4))
    asm.and_(Reg.ESI, Imm(0x5003FC))  # wrap within the table
    asm.dec(Reg.ECX)
    asm.jcc(Cond.NZ, "loop")
    asm.ret()
    asm.label("accumulate")
    asm.push(Reg.EBP)
    asm.mov(Reg.EBP, Reg.ESP)
    asm.mov(Reg.EDX, mem(Reg.ESI))
    asm.add(Reg.EAX, Reg.EDX)
    asm.pop(Reg.EBP)
    asm.ret()
    return asm.assemble()


def main() -> None:
    program = build_program()

    # 1-2. Execute and capture the dynamic trace.
    emulator = Emulator(program)
    trace = DynamicTrace(emulator.run(), name="quickstart")
    print(f"trace: {len(trace)} x86 instructions, "
          f"final EAX = {emulator.regs[Reg.EAX]}")

    # 3. Decode into micro-operations.
    injected = MicroOpInjector().inject_trace(trace)
    print(f"decoded: {injected.uop_count} uops "
          f"({injected.uops_per_x86:.2f} uops per x86 instruction)")

    # 4. Build one frame by hand (one loop iteration) and optimize it.
    start = injected.pcs.index(program.labels["loop"], 21)
    stop = start + 12
    end_next_pc = injected.records[stop - 1].next_pc
    frame = Frame.from_region(injected, start, stop, end_next_pc)
    buffer = frame.build_buffer()
    print("\n--- frame before optimization ---")
    print(buffer.dump())
    result = FrameOptimizer().optimize(buffer)
    print(f"\n--- after optimization: {result.uops_before} -> "
          f"{result.uops_after} uops, {result.loads_before} -> "
          f"{result.loads_after} loads ---")
    print(buffer.dump())

    # 5. Full trace-driven simulation, basic rePLay vs optimizing rePLay.
    print("\n--- simulation ---")
    for name in ("IC", "RP", "RPO"):
        experiment = run_experiment(trace, CONFIGS[name])
        print(f"{name:4s} IPC = {experiment.ipc_x86:.2f}  "
              f"(coverage {experiment.coverage:.0%})")


if __name__ == "__main__":
    main()
