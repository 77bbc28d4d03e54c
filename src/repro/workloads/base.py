"""Workload framework.

The paper's evaluation ran on proprietary AMD hardware traces of
SPECint 2000 and Winstone desktop applications (Table 1).  Those traces
are unobtainable, so each application is replaced by a synthetic x86
program written to exercise the same *structural* behaviour the paper
attributes to it — loop-carried redundant loads in bzip2's critical loop,
stack-frame-heavy call patterns in eon/vortex, aliasing unsafe stores in
Excel, serial DSP chains in SoundForge, and so on (see each module's
docstring and DESIGN.md §2).

Every workload is deterministic: a seed fixes its data, and the emulator
produces the dynamic trace the rest of the system consumes.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from repro.metrics import MetricsRegistry, get_registry
from repro.trace.stream import DynamicTrace
from repro.x86.assembler import Assembler, Program
from repro.x86.emulator import Emulator

#: Where workload data tables live in the address space.
DATA_BASE = 0x0050_0000

#: A large second data region (used by big-footprint workloads).
BIG_DATA_BASE = 0x0060_0000


@dataclass(frozen=True)
class Workload:
    """One benchmark: a program builder plus metadata (Table 1 analogue)."""

    name: str
    category: str  # 'SPECint' | 'Business' | 'Content'
    description: str
    build: Callable[[int, int], Program]  # (scale, seed)
    default_scale: int = 1
    paper_uop_reduction: float = 0.0  # Table 3, for EXPERIMENTS.md comparison
    paper_load_reduction: float = 0.0
    paper_ipc_gain: float = 0.0


class WorkloadError(Exception):
    """A workload ran past its emulation budget without exiting."""

    def __init__(self, workload: str, scale: int, budget: int):
        # The fields are the args, so the error pickles across a pool.
        super().__init__(workload, scale, budget)
        self.workload, self.scale, self.budget = workload, scale, budget

    def __str__(self) -> str:
        return (
            f"workload {self.workload!r} at scale {self.scale} did not finish "
            f"within its emulation budget of {self.budget} instructions; "
            "lower its scale"
        )


_REGISTRY: dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    if workload.name in _REGISTRY:
        raise ValueError(f"duplicate workload {workload.name!r}")
    _REGISTRY[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def all_workloads() -> list[Workload]:
    _ensure_loaded()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def build_workload(
    name: str,
    scale: int | None = None,
    seed: int = 1,
    max_instructions: int = 400_000,
    metrics: MetricsRegistry | None = None,
) -> DynamicTrace:
    """Build and run a workload, returning its dynamic trace.

    Emulation throughput (instructions emulated, wall time, insts/sec)
    lands in ``metrics`` (the process-global registry when not given).
    """
    registry = metrics if metrics is not None else get_registry()
    workload = get_workload(name)
    scale = scale or workload.default_scale
    emulator = Emulator(workload.build(scale, seed))
    start = time.perf_counter()
    records = emulator.run(max_instructions)
    elapsed = time.perf_counter() - start
    if not emulator.halted:
        raise WorkloadError(name, scale, max_instructions)
    registry.counter("emulator.runs").inc()
    registry.counter("emulator.instructions").inc(len(records))
    registry.histogram("time.emulate").observe(elapsed)
    if elapsed > 0:
        registry.histogram("emulator.insts_per_sec").observe(
            len(records) / elapsed
        )
    return DynamicTrace(records, name=name)


_LOADED = False


def _ensure_loaded() -> None:
    """Import the workload modules exactly once (they self-register)."""
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    from repro.workloads import desktop, spec  # noqa: F401


def data_words(rng: random.Random, count: int, bits: int = 32) -> list[int]:
    """Deterministic pseudo-random data words for workload tables."""
    mask = (1 << bits) - 1
    return [rng.getrandbits(bits) & mask for _ in range(count)]


def prologue(asm: Assembler) -> None:
    """Standard x86 function prologue (frame pointer setup)."""
    from repro.x86.registers import Reg

    asm.push(Reg.EBP)
    asm.mov(Reg.EBP, Reg.ESP)


def epilogue(asm: Assembler) -> None:
    """Standard x86 function epilogue."""
    from repro.x86.registers import Reg

    asm.pop(Reg.EBP)
    asm.ret()
