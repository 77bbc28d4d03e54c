"""Experiment harness: configurations and result plumbing."""

from dataclasses import replace

import pytest

from repro.harness import CONFIGS, run_experiment


@pytest.fixture(scope="module")
def trace(matrix):
    return matrix.trace("twolf")


def test_configs_registry():
    assert set(CONFIGS) == {"IC", "IC64", "TC", "RP", "RPO"}
    assert CONFIGS["RPO"].optimize and not CONFIGS["RP"].optimize
    assert CONFIGS["IC"].frontend == "icache"
    assert CONFIGS["TC"].frontend == "tcache"


def test_all_configs_retire_everything(trace):
    for name in ("IC", "TC", "RP", "RPO"):
        result = run_experiment(trace, CONFIGS[name])
        assert result.sim.x86_retired == len(trace)
        assert result.ipc_x86 > 0


def test_rpo_beats_rp_on_twolf(trace):
    rp = run_experiment(trace, CONFIGS["RP"])
    rpo = run_experiment(trace, CONFIGS["RPO"])
    assert rpo.ipc_x86 > rp.ipc_x86
    assert rpo.uop_reduction > 0.1
    assert rpo.load_reduction > 0.1


def test_ic_reports_no_reduction(trace):
    ic = run_experiment(trace, CONFIGS["IC"])
    assert ic.uop_reduction == 0.0
    assert ic.coverage == 0.0


def test_verification_runs_when_requested(trace):
    result = run_experiment(trace, replace(CONFIGS["RPO"], verify=True))
    assert result.frames_verified > 0


def test_ic64_larger_icache_helps_or_ties(trace):
    ic = run_experiment(trace, CONFIGS["IC"])
    ic64 = run_experiment(trace, CONFIGS["IC64"])
    assert ic64.sim.bins["miss"] <= ic.sim.bins["miss"]


def test_unknown_frontend_rejected(trace):
    bad = replace(CONFIGS["IC"], frontend="flux-capacitor")
    with pytest.raises(ValueError, match="frontend"):
        run_experiment(trace, bad)


def test_uops_per_x86_in_paper_ballpark(trace):
    result = run_experiment(trace, CONFIGS["IC"])
    # Paper: 1.4 average across its workload mix.
    assert 1.1 <= result.uops_per_x86 <= 1.8
