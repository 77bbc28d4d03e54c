"""Campaign reproducibility: the digest must not depend on run shape."""

from collections import Counter

import pytest

import repro.fuzz.campaign as campaign_mod
from repro.fuzz.campaign import (
    CONFIG_AXIS,
    PROGRAM_AXIS,
    CampaignConfig,
    derive_program_seed,
    run_campaign,
)
from repro.metrics import MetricsRegistry


def test_derived_seeds_are_stable_and_distinct():
    # Frozen values: changing the derivation silently would break every
    # stored case's "found" provenance.
    assert derive_program_seed(1, 0) == derive_program_seed(1, 0)
    seeds = {derive_program_seed(1, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_program_seed(1, 0) != derive_program_seed(2, 0)


def test_campaign_digest_independent_of_jobs_and_chunking():
    serial = run_campaign(CampaignConfig(seed=5, iterations=30, jobs=1))
    parallel = run_campaign(
        CampaignConfig(seed=5, iterations=30, jobs=2, chunk_size=7)
    )
    assert serial.digest == parallel.digest
    assert serial.count == parallel.count == 30
    assert serial.totals == parallel.totals


def test_campaign_digest_changes_with_seed():
    a = run_campaign(CampaignConfig(seed=1, iterations=5))
    b = run_campaign(CampaignConfig(seed=2, iterations=5))
    assert a.digest != b.digest


def test_campaign_merges_worker_metrics():
    registry = MetricsRegistry()
    result = run_campaign(
        CampaignConfig(seed=3, iterations=8), metrics=registry
    )
    counters = registry.counters()
    assert counters["fuzz.programs"] == 8
    assert counters["fuzz.campaign_programs"] == 8
    assert registry.gauge("fuzz.programs_per_sec").value > 0
    assert result.ok


def test_campaign_digest_is_pinned():
    # Frozen value: the digest hashes every per-program summary dict, so
    # a change to a summary's keys or JSON moves it.
    result = run_campaign(CampaignConfig(seed=1, iterations=20))
    assert result.digest == (
        "5b87f8896e4c04960ba915e84fdf06e8d0cc2e8b39b6a4ae733d6b39dfedd2c6"
    )
    assert result.ok


@pytest.mark.parametrize("axis", [PROGRAM_AXIS, CONFIG_AXIS], ids=lambda a: a.unit)
def test_campaign_calls_through_module_globals(monkeypatch, axis):
    """The benchmark's op clock and tracer replace these module globals,
    so a campaign must look them up at call time, once per index."""
    calls = Counter()

    def counting(name):
        original = getattr(campaign_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(campaign_mod, name, wrapper)

    for name in (
        "generate_program",
        "generate_config",
        "run_differential",
        "run_config_differential",
    ):
        counting(name)
    run_campaign(CampaignConfig(seed=1, iterations=3, jobs=1, axis=axis))
    oracle = "run_differential" if axis is PROGRAM_AXIS else "run_config_differential"
    expected = {"generate_program": 3, oracle: 3}
    if axis is CONFIG_AXIS:
        expected["generate_config"] = 3
    assert calls == expected
