"""Trace infrastructure: records, streams, and the Micro-Op Injector."""

from repro.trace.injector import InjectedTrace, InjectionError, MicroOpInjector
from repro.trace.record import MemOp, TraceRecord
from repro.trace.stream import DynamicTrace, TraceStats

__all__ = [
    "DynamicTrace",
    "InjectedTrace",
    "InjectionError",
    "MemOp",
    "MicroOpInjector",
    "TraceRecord",
    "TraceStats",
]
