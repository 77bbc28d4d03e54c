"""Cache model: geometry, LRU, hierarchy latencies."""

import pytest

from repro.timing import Cache, CacheConfig, CacheHierarchy


def small_cache(size=1024, line=64, assoc=2):
    return Cache(CacheConfig(size_bytes=size, line_bytes=line, associativity=assoc))


def test_geometry():
    cache = small_cache()
    assert cache.num_sets == 1024 // (64 * 2)


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        Cache(CacheConfig(size_bytes=1000, line_bytes=64, associativity=2))
    with pytest.raises(ValueError):
        Cache(CacheConfig(size_bytes=1024, line_bytes=48, associativity=2))


def test_first_access_misses_then_hits():
    cache = small_cache()
    assert not cache.access_range(0x100, 1)
    assert cache.access_range(0x100, 1)
    assert cache.access_range(0x13F, 1)  # same 64-byte line


def test_lru_within_set():
    cache = small_cache(size=256, line=64, assoc=2)  # 2 sets
    set_stride = 2 * 64  # same set every 128 bytes
    a, b, c = 0x0, set_stride, 2 * set_stride
    cache.access_range(a, 1)
    cache.access_range(b, 1)
    cache.access_range(a, 1)  # refresh a
    cache.access_range(c, 1)  # evicts b
    assert cache.access_range(a, 1)
    assert not cache.access_range(b, 1)


def test_access_range_spanning_lines():
    cache = small_cache()
    assert not cache.access_range(0x3C, 8)  # spans lines 0 and 1
    assert cache.access_range(0x0, 1) and cache.access_range(0x40, 1)


def test_hierarchy_latencies():
    l2 = Cache(CacheConfig(size_bytes=4096, line_bytes=64, associativity=4,
                           hit_latency=10))
    hierarchy = CacheHierarchy(
        CacheConfig(size_bytes=512, line_bytes=64, associativity=2,
                    hit_latency=2),
        l2,
        memory_latency=50,
    )
    cold = hierarchy.access(0x1000)
    assert cold == 2 + 10 + 50  # misses everywhere
    warm = hierarchy.access(0x1000)
    assert warm == 2  # L1 hit
    # Evict from tiny L1 but not from L2.
    for i in range(16):
        hierarchy.access(0x2000 + i * 64)
    l2_hit = hierarchy.access(0x1000)
    assert l2_hit == 2 + 10


def test_hit_miss_counters():
    cache = small_cache()
    cache.access_range(0, 1)
    cache.access_range(0, 1)
    cache.access_range(64, 1)
    assert cache.hits == 1 and cache.misses == 2 and cache.accesses == 3
