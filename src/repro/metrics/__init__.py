"""Lightweight, zero-dependency observability for the reproduction.

Two pieces:

* :mod:`repro.metrics.registry` — process-local counters, gauges,
  histograms, scoped timers, and a ring-buffer event trace, with
  deterministic cross-process merging;
* :mod:`repro.metrics.ledger` — the versioned JSON run ledger written
  by ``--emit-stats`` and rendered by the ``stats`` CLI subcommand.

Profile a run with the standard library's cProfile (DESIGN.md §9).
"""

from repro.metrics.ledger import (
    LEDGER_VERSION,
    SUPPORTED_VERSIONS,
    LedgerError,
    build_run_ledger,
    emit_run_ledger,
    format_ledger,
    read_ledger,
    result_entry,
    validate_ledger,
    write_ledger,
)
from repro.metrics.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LEDGER_VERSION",
    "LedgerError",
    "MetricsRegistry",
    "SUPPORTED_VERSIONS",
    "build_run_ledger",
    "emit_run_ledger",
    "format_ledger",
    "get_registry",
    "read_ledger",
    "result_entry",
    "validate_ledger",
    "write_ledger",
]
