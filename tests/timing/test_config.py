"""Processor configuration (Table 2)."""

from repro.timing import default_config, large_icache_config


def test_default_matches_paper_table2():
    config = default_config()
    assert config.fetch_width == 8
    assert config.window_size == 512
    assert config.branch_resolution_depth == 15
    assert config.simple_alus == 6
    assert config.complex_alus == 2
    assert config.fpus == 3
    assert config.load_store_units == 4
    assert config.ghr_bits == 18
    assert config.frame_cache_uops == 16 * 1024
    assert config.icache.size_bytes == 8 * 1024
    assert config.dcache.size_bytes == 32 * 1024
    assert config.dcache.hit_latency == 2
    assert config.l2.size_bytes == 512 * 1024
    assert config.l2.hit_latency == 10
    assert config.memory_latency == 50


def test_large_icache_reference_config():
    config = large_icache_config()
    assert config.icache.size_bytes == 64 * 1024


def test_table2_rendering_mentions_key_values():
    text = default_config().table2()
    assert "8-wide" in text
    assert "18-bit gshare" in text
    assert "512" in text
    assert "50 cycles" in text
