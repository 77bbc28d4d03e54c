"""Every workload's optimized frames verify against the trace.

This is the strongest system-level correctness statement the repo makes:
for all fourteen workloads, every distinct optimized frame path that the
sequencer dispatches is executed by the State Verifier against the
original instruction stream's architectural effects — registers, flags,
and stored bytes at the frame boundary (paper §5.1.3).
"""

from dataclasses import replace

import pytest

from repro.harness import CONFIGS, run_experiment
from repro.workloads import all_workloads


@pytest.mark.parametrize("name", [w.name for w in all_workloads()])
def test_workload_frames_verify(matrix, name):
    trace = matrix.trace(name)
    result = run_experiment(trace, replace(CONFIGS["RPO"], verify=True), name)
    # Verification raises on any divergence; reaching here with at least
    # one checked frame is the assertion.
    assert result.frames_verified > 0, f"{name}: no frames were verified"
    assert result.sim.x86_retired == len(trace)
