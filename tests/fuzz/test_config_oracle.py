"""Config-differential oracle: the A/B grid and its helper mechanics.

``test_ab_grid_over_random_configs`` is the acceptance gate for the
config axis: ≥20 seeded random configurations, each driving a generated
program through every front end under both scheduling modes, must be
cycle-identical (plus retire-conserving, and no slower when widened,
which holds on these seeds though it is no invariant) with zero
divergences.
"""

from functools import partial

import pytest

import repro.fuzz.config_oracle as oracle_mod
from repro.fuzz.config_oracle import (
    ConfigDivergence,
    run_config_differential,
    sim_result_diff,
    widen_config,
)
from repro.fuzz.configgen import generate_config
from repro.fuzz.generator import generate_program
from repro.fuzz.oracle import MAX_INSTRUCTIONS, run_differential
from repro.metrics import MetricsRegistry
from repro.timing.config import default_config
from repro.timing.pipeline import PipelineModel, SimResult


def test_ab_grid_over_random_configs():
    """Acceptance: template == reference over >= 20 random configs."""
    registry = MetricsRegistry()
    divergent = []
    for seed in range(20):
        genome = generate_program(5000 + seed)
        processor = generate_config(6000 + seed)
        report = run_config_differential(
            genome, processor, metrics=registry
        )
        # 3 front ends x 2 scheduling modes + 1 widened re-sim.
        assert report.simulations == 7
        assert report.trace_length > 0
        if not report.ok:
            divergent.append((seed, report.divergences))
    assert divergent == []
    assert registry.counters()["fuzz.config.pairs"] == 20
    assert "fuzz.config.divergences" not in registry.counters()


def test_default_config_pair_is_clean():
    report = run_config_differential(generate_program(1), default_config())
    assert report.ok
    assert report.config_fields == []


def test_sim_result_diff_names_the_field():
    a = SimResult()
    b = SimResult()
    assert sim_result_diff(a, b) == "equal"
    a.cycles = 100
    b.cycles = 90
    assert "cycles: 100 != 90" in sim_result_diff(a, b)


def test_widen_config_doubles_capacity_axes_only():
    config = generate_config(9)
    wide = widen_config(config)
    assert wide.simple_alus == config.simple_alus * 2
    assert wide.load_store_units == config.load_store_units * 2
    assert wide.retire_width == config.retire_width * 2
    assert wide.window_size == config.window_size * 2
    # Fetch grouping axes are untouched: changing them changes *which*
    # blocks fetch, which legitimately perturbs timing.
    assert wide.fetch_width == config.fetch_width
    assert wide.x86_decode_width == config.x86_decode_width
    assert wide.icache == config.icache


def test_divergence_json_roundtrip():
    d = ConfigDivergence(kind="schedule-ab", frontend="RP", detail="cycles")
    assert ConfigDivergence.from_json(d.to_json()) == d


def test_sim_crash_is_a_finding_not_an_exception(monkeypatch):
    def exploding_run(trace, experiment, widened=None, metrics=None):
        raise RuntimeError("synthetic meltdown")

    monkeypatch.setattr(oracle_mod, "run_lockstep", exploding_run)
    report = run_config_differential(generate_program(2), default_config())
    assert not report.ok
    assert {d.kind for d in report.divergences} == {"sim-crash"}
    assert any("synthetic meltdown" in d.detail for d in report.divergences)
    # One finding per front end; its checks are skipped.
    assert [d.frontend for d in report.divergences] == list(oracle_mod.FRONTENDS)
    assert report.simulations == 0


def skew_template(monkeypatch, block, undo):
    """Patch the template kernel: every template model runs one cycle
    late after its ``block``-th block and, with ``undo``, one cycle
    early again before the next one."""
    kernel = PipelineModel._schedule_block

    def skewed(self, *args):
        index = self.skew_index = getattr(self, "skew_index", -1) + 1
        if undo and index == block + 1:
            self.cycle -= 1
        last_complete = kernel(self, *args)
        if index == block:
            self.cycle += 1
        return last_complete

    monkeypatch.setattr(PipelineModel, "_schedule_block", skewed)


@pytest.mark.parametrize("undo", [False, True])
def test_cycle_split_is_a_schedule_ab_finding_naming_the_block(monkeypatch, undo):
    skew_template(monkeypatch, block=3, undo=undo)
    report = run_config_differential(generate_program(2), default_config())
    assert [(d.kind, d.frontend) for d in report.divergences] == [
        ("schedule-ab", name) for name in oracle_mod.FRONTENDS
    ]
    for divergence in report.divergences:
        assert divergence.detail.startswith("cycle split at block 3: template ")
        # Undone before the next block, the split leaves no trace in the
        # final results: only the per-block check sees it.
        assert divergence.detail.endswith("; equal") == undo


@pytest.mark.parametrize(
    "run",
    [run_differential, partial(run_config_differential, processor=default_config())],
    ids=["run_differential", "run_config_differential"],
)
def test_non_halting_program_raises(run):
    """A genome whose loop outruns the emulation budget is unrunnable,
    not a divergence, in both oracles."""
    genome = generate_program(4)
    genome.iterations = MAX_INSTRUCTIONS
    with pytest.raises(ValueError, match="did not halt"):
        run(genome)
