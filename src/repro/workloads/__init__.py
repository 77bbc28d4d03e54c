"""Synthetic workloads standing in for the paper's AMD traces (Table 1)."""

from repro.workloads.base import (
    Workload,
    all_workloads,
    build_workload,
    desktop_workloads,
    get_workload,
    register,
    spec_workloads,
)

__all__ = [
    "Workload",
    "all_workloads",
    "build_workload",
    "desktop_workloads",
    "get_workload",
    "register",
    "spec_workloads",
]
