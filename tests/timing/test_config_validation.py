"""ConfigError regressions: every degenerate shape the fuzzer found.

Each test pins one concrete failure mode that used to crash (or hang)
somewhere downstream — ``ZeroDivisionError`` in cache construction,
``line % 0`` on a zero-set cache, an infinite issue loop on an empty
functional-unit pool — and now dies up front with a :class:`ConfigError`
naming the offending field.
"""

from dataclasses import replace

import pytest

from repro.harness.experiment import CONFIGS, make_sequencer
from repro.timing import Cache, CacheConfig, ConfigError
from repro.timing.config import default_config
from repro.timing.pipeline import PipelineModel
from repro.timing.predictor import (
    BranchTargetBuffer,
    GsharePredictor,
    ReturnAddressStack,
)


def _field_of(excinfo):
    return excinfo.value.field


def test_config_error_is_a_value_error_naming_the_field():
    err = ConfigError("dcache.associativity", "must be >= 1, got 0")
    assert isinstance(err, ValueError)
    assert err.field == "dcache.associativity"
    assert str(err).startswith("dcache.associativity: ")


# ------------------------------------------------------------------ caches


def test_cache_zero_associativity_no_longer_zero_divides():
    # Historic crash: num_sets = size // (line * 0) -> ZeroDivisionError.
    with pytest.raises(ConfigError) as excinfo:
        Cache(CacheConfig(size_bytes=1024, line_bytes=64, associativity=0))
    assert _field_of(excinfo) == "cache.associativity"


def test_cache_zero_sets_no_longer_crashes_at_access_time():
    # Historic crash: size < line*assoc gave num_sets == 0, then the
    # first access died with `line % 0`.
    with pytest.raises(ConfigError) as excinfo:
        Cache(CacheConfig(size_bytes=64, line_bytes=64, associativity=2))
    assert _field_of(excinfo) == "cache.size_bytes"


def test_cache_indivisible_size_rejected():
    with pytest.raises(ConfigError) as excinfo:
        Cache(CacheConfig(size_bytes=1000, line_bytes=64, associativity=2))
    assert _field_of(excinfo) == "cache.size_bytes"


def test_cache_non_power_of_two_line_rejected():
    with pytest.raises(ConfigError) as excinfo:
        Cache(CacheConfig(size_bytes=960, line_bytes=48, associativity=2))
    assert _field_of(excinfo) == "cache.line_bytes"


def test_cache_zero_hit_latency_rejected():
    with pytest.raises(ConfigError) as excinfo:
        CacheConfig(size_bytes=1024, hit_latency=0).validate()
    assert _field_of(excinfo) == "cache.hit_latency"


def test_cache_validate_prefix_names_the_level():
    config = default_config()
    config.dcache.associativity = 0
    with pytest.raises(ConfigError) as excinfo:
        config.validate()
    assert _field_of(excinfo) == "dcache.associativity"


# ---------------------------------------------------------------- pipeline


@pytest.mark.parametrize(
    "field_name,value",
    [
        ("fetch_width", 0),
        ("retire_width", 0),
        ("x86_decode_width", 0),
        ("branch_resolution_depth", -1),
        ("simple_alus", 0),
        ("complex_alus", 0),
        ("fpus", 0),
        ("load_store_units", 0),
        ("ghr_bits", 0),
        ("btb_entries", 100),
        ("ras_depth", 0),
        ("memory_latency", 0),
        ("frame_cache_uops", 0),
        ("cache_switch_penalty", -1),
        ("mul_latency", 0),
        ("div_latency", 0),
    ],
)
def test_processor_scalar_field_rejected(field_name, value):
    config = default_config()
    setattr(config, field_name, value)
    with pytest.raises(ConfigError) as excinfo:
        config.validate()
    assert _field_of(excinfo) == field_name


def test_window_smaller_than_fetch_width_rejected():
    # Historic hang: fetch could never fit a group into the window, so
    # _wait_for_window spun forever.
    config = default_config()
    config.fetch_width = 8
    config.window_size = 4
    with pytest.raises(ConfigError) as excinfo:
        config.validate()
    assert _field_of(excinfo) == "window_size"


def test_default_config_validates_clean():
    default_config().validate()


def test_pipeline_model_validates_up_front():
    config = default_config()
    config.simple_alus = 0  # historic hang: issue loop spins forever
    with pytest.raises(ConfigError) as excinfo:
        PipelineModel(config)
    assert _field_of(excinfo) == "simple_alus"


@pytest.mark.parametrize("name", ["IC", "TC", "RP", "RPO"])
def test_sequencer_factory_validates_before_building(name):
    # Sequencers read the geometry (frame cache capacity, fetch width) in
    # their constructors, so the factory every simulation entry point
    # shares must reject a degenerate config before building one: here
    # the trace is never touched.
    config = default_config()
    config.frame_cache_uops = 0
    experiment = replace(CONFIGS[name], processor=config)
    with pytest.raises(ConfigError) as excinfo:
        make_sequencer(None, experiment)
    assert _field_of(excinfo) == "frame_cache_uops"


# --------------------------------------------------------------- predictor


def test_gshare_zero_history_bits_rejected():
    with pytest.raises(ConfigError) as excinfo:
        GsharePredictor(history_bits=0)
    assert _field_of(excinfo) == "ghr_bits"


def test_btb_non_power_of_two_entries_rejected():
    with pytest.raises(ConfigError) as excinfo:
        BranchTargetBuffer(entries=100)
    assert _field_of(excinfo) == "btb_entries"


def test_btb_zero_entries_rejected():
    # Historic crash: `pc % 0` on the first lookup.
    with pytest.raises(ConfigError):
        BranchTargetBuffer(entries=0)


def test_ras_zero_depth_rejected():
    with pytest.raises(ConfigError) as excinfo:
        ReturnAddressStack(depth=0)
    assert _field_of(excinfo) == "ras_depth"


# ------------------------------------------------------------------ table2


def test_table2_small_frame_cache_no_longer_renders_0k():
    # Historic bug: floor division printed 512 uops as "0k" and always
    # claimed "approximately 64kB" whatever the capacity.
    config = default_config()
    config.frame_cache_uops = 512
    text = config.table2()
    assert "512 micro-operations" in text
    assert "0k" not in text
    assert "approximately 2kB" in text
    assert "64kB" not in text


def test_table2_non_multiple_capacity_renders_exact():
    config = default_config()
    config.frame_cache_uops = 100
    text = config.table2()
    assert "100 micro-operations" in text
    assert "approximately 400B" in text


def test_table2_default_rendering_unchanged():
    text = default_config().table2()
    assert "16k micro-operations" in text
    assert "approximately 64kB" in text
    assert "32kB" in text
    assert "512kB" in text
