"""Experiment harness: configurations, runners, and report formatting."""

from repro.harness.experiment import (
    CONFIGS,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.harness.figures import (
    FIG10_VARIANTS,
    FIG10_WORKLOADS,
    PAPER_ORDER,
    ResultMatrix,
    run_fig6,
    run_fig7_8,
    run_fig9,
    run_fig10,
    run_table1,
    run_table2,
    run_table3,
)

__all__ = [
    "CONFIGS",
    "ExperimentConfig",
    "ExperimentResult",
    "FIG10_VARIANTS",
    "FIG10_WORKLOADS",
    "PAPER_ORDER",
    "ResultMatrix",
    "run_experiment",
    "run_fig6",
    "run_fig7_8",
    "run_fig9",
    "run_fig10",
    "run_table1",
    "run_table2",
    "run_table3",
]
