"""Delta-debugging shrinker mechanics (against a synthetic oracle).

The real oracle is deterministic and (after this PR's fixes) clean on
generated programs, so these tests substitute a predicate oracle: a
genome "diverges" iff it still carries marker ops.  That isolates the
ddmin machinery — chunk dropping, restarts, iteration halving, field
simplification, attempt bounding — from optimizer behavior.
"""

import pytest

import repro.fuzz.shrink as shrink_mod
from repro.fuzz.config_oracle import ConfigDivergence, ConfigPairReport
from repro.fuzz.configgen import config_delta
from repro.fuzz.generator import FuzzProgram
from repro.fuzz.oracle import Divergence, ProgramReport
from repro.fuzz.shrink import shrink_case
from repro.timing.config import default_config


def _genome(ops):
    return FuzzProgram(
        seed=1,
        iterations=16,
        alias_delta=4,
        reg_init={"eax": 0xDEAD, "ebx": 5, "edx": 0, "ebp": 9},
        data=[7] * 8,
        ops=ops,
    )


def _marker_oracle(monkeypatch, kind="final-state"):
    """Replace the differential oracle: diverges iff a marker op remains."""
    calls = {"count": 0}

    def fake_run(genome, metrics=None):
        calls["count"] += 1
        report = ProgramReport(seed=genome.seed)
        if any(op.get("marker") for op in genome.ops):
            report.divergences.append(
                Divergence(kind=kind, variant="full", detail="synthetic")
            )
        return report

    monkeypatch.setattr(shrink_mod, "run_differential", fake_run)
    return calls


def test_shrinks_to_the_single_marker_op(monkeypatch):
    _marker_oracle(monkeypatch)
    filler = [{"kind": "cdq"} for _ in range(15)]
    genome = _genome(filler[:7] + [{"kind": "cdq", "marker": True}] + filler[7:])
    result = shrink_case(genome)
    assert result.reductions > 0
    assert result.final_ops == 1
    assert result.genome.ops[0].get("marker")
    # Iterations halved down to the floor; fields zeroed.
    assert result.genome.iterations == 2
    assert result.genome.alias_delta == 0
    assert all(v == 0 for v in result.genome.reg_init.values())
    assert all(w == 0 for w in result.genome.data)


def test_shrink_preserves_divergence_kind(monkeypatch):
    """A candidate that diverges with a *different* kind is rejected."""
    calls = {"count": 0}

    def fake_run(genome, metrics=None):
        calls["count"] += 1
        report = ProgramReport(seed=genome.seed)
        if any(op.get("marker") for op in genome.ops):
            report.divergences.append(
                Divergence(kind="verifier", variant="full", detail="real")
            )
        else:
            # Everything else "diverges" some unrelated way.
            report.divergences.append(
                Divergence(kind="optimizer-crash", variant="full", detail="noise")
            )
        return report

    monkeypatch.setattr(shrink_mod, "run_differential", fake_run)
    genome = _genome(
        [{"kind": "cdq", "marker": True}] + [{"kind": "cdq"} for _ in range(5)]
    )
    result = shrink_case(genome)
    assert any(op.get("marker") for op in result.genome.ops)


def test_attempt_budget_is_respected(monkeypatch):
    calls = _marker_oracle(monkeypatch)
    genome = _genome(
        [{"kind": "cdq", "marker": True}] + [{"kind": "cdq"} for _ in range(30)]
    )
    result = shrink_case(genome, max_attempts=10)
    # One call classifies the original; at most 10 more judge candidates.
    assert calls["count"] <= 11
    assert result.attempts <= 10


def test_non_divergent_genome_is_rejected(monkeypatch):
    _marker_oracle(monkeypatch)
    genome = _genome([{"kind": "cdq"}])  # no marker: never diverges
    with pytest.raises(ValueError, match="non-divergent"):
        shrink_case(genome)


def test_unrunnable_candidates_count_as_non_divergent(monkeypatch):
    """Shrinker edits can produce genomes that crash the oracle; those
    must be skipped, not crash the shrink."""

    def fake_run(genome, metrics=None):
        if len(genome.ops) < 2:
            raise ValueError("synthetic: did not halt")
        report = ProgramReport(seed=genome.seed)
        if any(op.get("marker") for op in genome.ops):
            report.divergences.append(
                Divergence(kind="final-state", variant="full", detail="d")
            )
        return report

    monkeypatch.setattr(shrink_mod, "run_differential", fake_run)
    genome = _genome(
        [{"kind": "cdq", "marker": True}] + [{"kind": "cdq"} for _ in range(7)]
    )
    result = shrink_case(genome)
    # Cannot go below 2 ops (the oracle "crashes" there), but the marker
    # plus one filler survive.
    assert result.final_ops == 2
    assert any(op.get("marker") for op in result.genome.ops)


# ----------------------------------------------------------- config axis


def _config_marker_oracle(monkeypatch):
    """Synthetic config oracle: diverges iff a marker op remains AND the
    config still carries the guilty memory_latency=400 knob."""
    calls = {"count": 0}

    def fake_run(genome, processor, metrics=None):
        calls["count"] += 1
        report = ConfigPairReport(program_seed=genome.seed)
        if (
            any(op.get("marker") for op in genome.ops)
            and processor.memory_latency == 400
        ):
            report.divergences.append(
                ConfigDivergence(
                    kind="schedule-ab", frontend="IC", detail="synthetic"
                )
            )
        return report

    monkeypatch.setattr(shrink_mod, "run_config_differential", fake_run)
    return calls


def test_config_shrink_isolates_the_guilty_knob_and_op(monkeypatch):
    _config_marker_oracle(monkeypatch)
    processor = default_config()
    processor.memory_latency = 400  # guilty
    processor.mul_latency = 8  # irrelevant
    processor.fetch_width = 4  # irrelevant
    genome = _genome(
        [{"kind": "cdq"} for _ in range(5)]
        + [{"kind": "cdq", "marker": True}]
        + [{"kind": "cdq"} for _ in range(5)]
    )
    result = shrink_case(genome, processor)
    assert result.final_ops == 1
    assert result.genome.ops[0].get("marker")
    assert config_delta(result.config) == ["memory_latency"]
    assert result.original_fields == 3
    assert result.final_fields == 1
    assert result.reductions > 0


def test_config_shrink_rejects_clean_pair(monkeypatch):
    _config_marker_oracle(monkeypatch)
    genome = _genome([{"kind": "cdq"}])  # no marker
    with pytest.raises(ValueError, match="non-divergent"):
        shrink_case(genome, default_config())


def test_config_shrink_respects_the_attempt_budget(monkeypatch):
    calls = _config_marker_oracle(monkeypatch)
    processor = default_config()
    processor.memory_latency = 400
    processor.mul_latency = 8
    genome = _genome(
        [{"kind": "cdq", "marker": True}]
        + [{"kind": "cdq"} for _ in range(30)]
    )
    result = shrink_case(genome, processor, max_attempts=10)
    assert result.attempts <= 10
    # One classifying call plus at most max_attempts candidate calls.
    assert calls["count"] <= 11
