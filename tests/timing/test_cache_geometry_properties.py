"""Property tests: cache invariants over seeded random valid geometries.

The unit tests in ``test_caches.py`` pin a handful of hand-picked
shapes; these sweep ``Cache``/``CacheHierarchy`` across the whole valid
envelope (the same pools the config fuzzer samples from) and assert the
invariants that must hold for *any* geometry:

* counters conserve: ``hits + misses == accesses``;
* a repeated access always hits, a first-touch access always misses;
* exactly ``associativity`` distinct lines fit per set and LRU order
  decides the eviction victim;
* ``access_range`` counts one access whatever the span.
"""

import random

import pytest

from repro.timing import Cache, CacheConfig, CacheHierarchy

_LINE_BYTES = (16, 32, 64, 128)
_ASSOCIATIVITY = (1, 2, 4, 8)
_SETS = (1, 2, 4, 8, 16, 64)


def _random_geometry(rng: random.Random) -> CacheConfig:
    line = rng.choice(_LINE_BYTES)
    assoc = rng.choice(_ASSOCIATIVITY)
    sets = rng.choice(_SETS)
    return CacheConfig(
        size_bytes=line * assoc * sets,
        line_bytes=line,
        associativity=assoc,
        hit_latency=rng.randint(1, 8),
    )


@pytest.mark.parametrize("seed", range(25))
def test_counters_conserve_under_random_traffic(seed):
    rng = random.Random(seed)
    cache = Cache(_random_geometry(rng))
    for _ in range(300):
        cache.access_range(rng.randrange(0, 1 << 20), 1)
    assert cache.hits + cache.misses == cache.accesses == 300


@pytest.mark.parametrize("seed", range(25))
def test_repeat_access_hits_first_touch_misses(seed):
    rng = random.Random(1000 + seed)
    cache = Cache(_random_geometry(rng))
    seen_lines = set()
    for _ in range(200):
        addr = rng.randrange(0, 1 << 16)
        line = addr // cache.config.line_bytes
        hit = cache.access_range(addr, 1)
        if line not in seen_lines:
            # A line never touched before cannot hit... unless an alias
            # evicted nothing (first touch is always a miss).
            assert not hit
        seen_lines.add(line)
        # Immediate re-access of the same address always hits.
        assert cache.access_range(addr, 1)


@pytest.mark.parametrize("seed", range(15))
def test_lru_eviction_order_in_every_geometry(seed):
    rng = random.Random(2000 + seed)
    config = _random_geometry(rng)
    cache = Cache(config)
    assoc = config.associativity
    set_stride = cache.num_sets * config.line_bytes
    # Fill one set with `assoc` distinct lines: all fit, all then hit.
    addrs = [way * set_stride for way in range(assoc)]
    for addr in addrs:
        assert not cache.access_range(addr, 1)
    for addr in addrs:
        assert cache.access_range(addr, 1)
    # One more line in the same set evicts exactly the LRU way (addrs[0],
    # the least recently touched after the hit loop above).
    newcomer = assoc * set_stride
    assert not cache.access_range(newcomer, 1)
    if assoc > 1:
        assert cache.access_range(addrs[1], 1)  # survived (check before the miss
        # below reinserts addrs[0] and evicts another way)
    assert not cache.access_range(addrs[0], 1)  # evicted


@pytest.mark.parametrize("seed", range(15))
def test_access_range_counts_one_access_per_call(seed):
    rng = random.Random(3000 + seed)
    cache = Cache(_random_geometry(rng))
    for _ in range(100):
        addr = rng.randrange(0, 1 << 16)
        span = rng.randint(1, 4 * cache.config.line_bytes)
        cache.access_range(addr, span)
    assert cache.accesses == 100
    assert cache.hits + cache.misses == 100


@pytest.mark.parametrize("seed", range(15))
def test_hierarchy_latency_bounds_any_geometry(seed):
    rng = random.Random(4000 + seed)
    l1 = _random_geometry(rng)
    l2_config = _random_geometry(rng)
    memory_latency = rng.choice((10, 50, 200))
    hierarchy = CacheHierarchy(l1, Cache(l2_config), memory_latency)
    cold = hierarchy.access(0x12340)
    assert cold == l1.hit_latency + l2_config.hit_latency + memory_latency
    warm = hierarchy.access(0x12340)
    assert warm == l1.hit_latency
    # Any access costs at least an L1 hit and at most a full miss chain.
    for _ in range(200):
        latency = hierarchy.access(rng.randrange(0, 1 << 18))
        assert l1.hit_latency <= latency <= cold
