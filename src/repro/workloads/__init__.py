"""Synthetic workloads standing in for the paper's AMD traces (Table 1)."""

from repro.workloads.base import (
    Workload,
    WorkloadError,
    all_workloads,
    build_workload,
    get_workload,
    register,
)

__all__ = [
    "Workload",
    "WorkloadError",
    "all_workloads",
    "build_workload",
    "get_workload",
    "register",
]
