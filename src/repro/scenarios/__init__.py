"""Scenario subsystem: trace characterization (DESIGN.md §13).

:mod:`repro.scenarios.characterize` — reuse-by-instruction-type,
loop-structure, branch-bias, and uop latency/throughput reports over
any workload trace, driven by ``python -m repro.harness scenarios
characterize NAME``.
"""
