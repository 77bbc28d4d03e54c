"""Config-axis campaigns: seed derivation, digest reproducibility."""

from repro.fuzz.campaign import (
    ConfigCampaignConfig,
    derive_config_seed,
    derive_program_seed,
    run_config_campaign,
)
from repro.metrics import MetricsRegistry


def test_derived_config_seeds_stable_distinct_and_decorrelated():
    # Frozen values: the derivation domain is part of every stored
    # case's provenance.
    assert derive_config_seed(1, 0) == derive_config_seed(1, 0)
    seeds = {derive_config_seed(1, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_config_seed(1, 0) != derive_config_seed(2, 0)
    # The config axis must not mirror the program axis.
    assert derive_config_seed(1, 0) != derive_program_seed(1, 0)


def test_config_campaign_digest_independent_of_jobs_and_chunking():
    serial = run_config_campaign(
        ConfigCampaignConfig(seed=5, iterations=6, jobs=1)
    )
    parallel = run_config_campaign(
        ConfigCampaignConfig(seed=5, iterations=6, jobs=2, chunk_size=2)
    )
    assert serial.digest == parallel.digest
    assert serial.count == parallel.count == 6
    assert serial.totals == parallel.totals


def test_config_campaign_digest_changes_with_seed():
    a = run_config_campaign(ConfigCampaignConfig(seed=1, iterations=3))
    b = run_config_campaign(ConfigCampaignConfig(seed=2, iterations=3))
    assert a.digest != b.digest


def test_config_campaign_merges_worker_metrics():
    registry = MetricsRegistry()
    result = run_config_campaign(
        ConfigCampaignConfig(seed=3, iterations=4), metrics=registry
    )
    counters = registry.counters()
    assert counters["fuzz.config.pairs"] == 4
    assert counters["fuzz.config.campaign_pairs"] == 4
    assert counters["fuzz.config.simulations"] == result.totals["simulations"]
    assert registry.gauge("fuzz.config.pairs_per_sec").value > 0
    assert result.ok


def test_config_campaign_digest_is_pinned():
    # Frozen value: the digest hashes every per-pair summary dict, so a
    # change to a summary's keys or JSON moves it.
    result = run_config_campaign(ConfigCampaignConfig(seed=1, iterations=10))
    assert result.digest == (
        "f90163695fbf18ae308f94c29464dd14797fd4fc335a1d9fb26d057122387983"
    )
