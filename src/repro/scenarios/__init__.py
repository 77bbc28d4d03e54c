"""Scenario subsystem: workload families, trace ingestion, characterization.

Three front doors onto the experiment matrix (DESIGN.md §13):

* :mod:`repro.scenarios.families` — parameterized workload families
  grown from the fuzz generator's genome knobs, expanding ``(family,
  seed, count)`` specs into hundreds of registered matrix cells;
* :mod:`repro.scenarios.importer` — external dynamic traces in the
  binary codec (or the JSON text form) validated, quarantined when
  malformed, and registered as runnable workloads;
* :mod:`repro.scenarios.characterize` — reuse-by-instruction-type,
  loop-structure, branch-bias, and uop latency/throughput reports over
  any trace.
"""

from __future__ import annotations

_INSTALLED = False


def install_providers() -> None:
    """Register the family and imported-trace workload providers.

    Called by :func:`repro.workloads.base._ensure_loaded`, so any
    process that resolves workloads — CLI or pool worker — can
    resolve scenario names without further setup.
    """
    global _INSTALLED
    if _INSTALLED:
        return
    _INSTALLED = True
    from repro.workloads.base import register_provider

    from repro.scenarios import families, importer

    register_provider(families.PROVIDER)
    register_provider(importer.PROVIDER)
