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

import fnmatch
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol

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
    """One benchmark: a program builder plus metadata (Table 1 analogue).

    Most workloads carry a ``build`` callable that assembles a synthetic
    program.  Scenario-grown workloads may instead carry ``load_trace``
    (imported external traces, which have no program to build) and/or
    ``digest`` (a content digest substituting for the build module's
    source hash in artifact-store keys).
    """

    name: str
    category: str  # 'SPECint' | 'Business' | 'Content' | 'Family' | 'Imported'
    description: str
    build: Callable[[int, int], Program] | None = None  # (scale, seed)
    default_scale: int = 1
    paper_uop_reduction: float = 0.0  # Table 3, for EXPERIMENTS.md comparison
    paper_load_reduction: float = 0.0
    paper_ipc_gain: float = 0.0
    load_trace: Callable[[int, int], DynamicTrace] | None = None
    digest: str = ""  # content digest overriding the source-module hash
    #: Family members expose their fuzz genome (``genome(seed)``) so the
    #: differential oracle can replay them (``fuzz repro --workload``).
    genome: Callable | None = None


class WorkloadProvider(Protocol):
    """Lazily materializes workloads whose names encode their recipe.

    Providers let the registry scale to hundreds of generated cells
    without eagerly constructing them: pool workers resolve workloads
    by *name only*, so a provider must rebuild the
    same :class:`Workload` from the name alone, in any process.
    """

    def lookup(self, name: str) -> Workload | None:
        """Return the workload for ``name``, or None if not ours."""
        ...

    def names(self) -> Iterable[str]:
        """Currently enumerable names (for globs and listings)."""
        ...


_REGISTRY: dict[str, Workload] = {}
_PROVIDERS: list[WorkloadProvider] = []
_PROVIDER_CACHE: dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    if workload.name in _REGISTRY:
        raise ValueError(f"duplicate workload {workload.name!r}")
    _REGISTRY[workload.name] = workload
    return workload


def register_provider(provider: WorkloadProvider) -> WorkloadProvider:
    if provider not in _PROVIDERS:
        _PROVIDERS.append(provider)
        _PROVIDER_CACHE.clear()
    return provider


def get_workload(name: str) -> Workload:
    _ensure_loaded()
    registered = _REGISTRY.get(name)
    if registered is not None:
        return registered
    cached = _PROVIDER_CACHE.get(name)
    if cached is not None:
        return cached
    for provider in _PROVIDERS:
        workload = provider.lookup(name)
        if workload is not None:
            _PROVIDER_CACHE[name] = workload
            return workload
    raise KeyError(
        f"unknown workload {name!r}; available: {sorted(_REGISTRY)} "
        f"plus provider-backed names (see `scenarios ls`)"
    )


def all_workloads() -> list[Workload]:
    _ensure_loaded()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def workload_names(include_providers: bool = True) -> list[str]:
    """All resolvable names: registered plus provider-enumerable ones."""
    _ensure_loaded()
    names = set(_REGISTRY)
    if include_providers:
        for provider in _PROVIDERS:
            names.update(provider.names())
    return sorted(names)


def resolve_workloads(patterns: Iterable[str]) -> list[str]:
    """Expand workload names/globs into concrete names (shared resolver).

    Each pattern is either an exact workload name or an ``fnmatch`` glob
    (``loopy-*``).  Expansion is deterministic (sorted within each
    pattern, order-preserving across patterns, deduplicated).  A pattern
    matching nothing raises ``KeyError``.
    """
    _ensure_loaded()
    universe = workload_names()
    resolved: list[str] = []
    seen: set[str] = set()
    for pattern in patterns:
        if any(ch in pattern for ch in "*?["):
            matches = sorted(fnmatch.filter(universe, pattern))
            if not matches:
                raise KeyError(f"workload glob {pattern!r} matched nothing")
        else:
            get_workload(pattern)  # raises KeyError with the full listing
            matches = [pattern]
        for name in matches:
            if name not in seen:
                seen.add(name)
                resolved.append(name)
    return resolved


def spec_workloads() -> list[Workload]:
    return [w for w in all_workloads() if w.category == "SPECint"]


def desktop_workloads() -> list[Workload]:
    return [w for w in all_workloads() if w.category in ("Business", "Content")]


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
    if workload.load_trace is not None:
        start = time.perf_counter()
        trace = workload.load_trace(scale or workload.default_scale, seed)
        elapsed = time.perf_counter() - start
        if len(trace.records) > max_instructions:
            raise RuntimeError(
                f"imported trace {name!r} has {len(trace.records)} records, "
                f"over the {max_instructions}-instruction budget"
            )
        registry.counter("workloads.trace_loads").inc()
        registry.histogram("time.trace_load").observe(elapsed)
        return DynamicTrace(trace.records, name=name)
    if workload.build is None:
        raise RuntimeError(f"workload {name!r} has no builder or trace loader")
    program = workload.build(scale or workload.default_scale, seed)
    emulator = Emulator(program)
    start = time.perf_counter()
    records = emulator.run(max_instructions)
    elapsed = time.perf_counter() - start
    if not emulator.halted:
        raise RuntimeError(
            f"workload {name!r} did not finish within {max_instructions} "
            f"instructions; lower its scale"
        )
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

    # Scenario providers (families, imported traces) register lazily so
    # pool workers resolve generated names by themselves.
    from repro.scenarios import install_providers

    install_providers()


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
