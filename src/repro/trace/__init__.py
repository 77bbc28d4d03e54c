"""Trace infrastructure: records, streams, and the Micro-Op Injector."""

from repro.trace.injector import InjectedInstruction, InjectionError, MicroOpInjector
from repro.trace.record import MemOp, TraceRecord
from repro.trace.stream import DynamicTrace, TraceStats

__all__ = [
    "DynamicTrace",
    "InjectedInstruction",
    "InjectionError",
    "MemOp",
    "MicroOpInjector",
    "TraceRecord",
    "TraceStats",
]
