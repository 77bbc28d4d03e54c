"""End-to-end integration: the paper's headline claims, in miniature."""

from dataclasses import replace

import pytest

from repro.harness import CONFIGS, run_experiment
from repro.harness.figures import fig10_config

#: Run the paper's pipeline on a representative trio with verification.
#: (excel is exercised separately below: its aliasing unsafe stores make
#: net IPC gains deliberately unreliable, per the paper's §6.4 story.)
WORKLOADS = ["eon", "bzip2", "twolf"]


@pytest.fixture(scope="module", params=WORKLOADS)
def results(request, matrix):
    name = request.param
    trace = matrix.trace(name)
    rp = matrix.run(name, CONFIGS["RP"])
    rpo = run_experiment(trace, replace(CONFIGS["RPO"], verify=True))
    return name, trace, rp, rpo


def test_everything_retires(results):
    _, trace, rp, rpo = results
    assert rp.sim.x86_retired == len(trace)
    assert rpo.sim.x86_retired == len(trace)


def test_optimization_removes_uops_and_loads(results):
    name, _, _, rpo = results
    assert rpo.uop_reduction > 0.05, name
    assert rpo.load_reduction > 0.05, name


def test_optimization_improves_ipc(results):
    name, _, rp, rpo = results
    assert rpo.ipc_x86 > rp.ipc_x86, name


def test_frames_formally_verified(results):
    name, _, _, rpo = results
    assert rpo.frames_verified > 0, name


def test_cycle_bins_account_for_runtime(results):
    _, _, rp, rpo = results
    for result in (rp, rpo):
        accounted = sum(result.sim.bins.values())
        assert 0.9 * result.sim.cycles <= accounted <= result.sim.cycles


def test_excel_unsafe_aborts_observed(matrix):
    """The paper's Excel story: aliasing unsafe stores abort frames."""
    rpo = matrix.run("excel", CONFIGS["RPO"])
    assert rpo.sequencer_stats.unsafe_aborts > 0


def test_excel_no_sf_avoids_aborts(matrix):
    no_sf = matrix.run("excel", fig10_config("sf"))
    assert no_sf.sequencer_stats.unsafe_aborts == 0
