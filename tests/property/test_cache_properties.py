"""Property tests on cache invariants."""

from hypothesis import given, settings, strategies as st

from repro.timing import Cache, CacheConfig

_addresses = st.lists(
    st.integers(min_value=0, max_value=0xFFFF), min_size=1, max_size=300
)


@given(_addresses)
@settings(max_examples=60, deadline=None)
def test_hits_plus_misses_equals_accesses(addresses):
    cache = Cache(CacheConfig(size_bytes=1024, line_bytes=64, associativity=2))
    for address in addresses:
        cache.access_range(address, 1)
    assert cache.hits + cache.misses == len(addresses)


@given(_addresses)
@settings(max_examples=60, deadline=None)
def test_occupancy_never_exceeds_capacity(addresses):
    config = CacheConfig(size_bytes=512, line_bytes=64, associativity=2)
    cache = Cache(config)
    for address in addresses:
        cache.access_range(address, 1)
    for ways in cache._sets:
        assert len(ways) <= config.associativity


@given(_addresses)
@settings(max_examples=60, deadline=None)
def test_immediate_rereference_always_hits(addresses):
    cache = Cache(CacheConfig(size_bytes=1024, line_bytes=64, associativity=2))
    for address in addresses:
        cache.access_range(address, 1)
        assert cache.access_range(address, 1)


@given(st.integers(min_value=0, max_value=0xFFFF),
       st.integers(min_value=1, max_value=256))
@settings(max_examples=60, deadline=None)
def test_access_range_touches_every_line(address, size):
    cache = Cache(CacheConfig(size_bytes=1 << 20, line_bytes=64,
                              associativity=16))
    # One transaction = one statistic: a single (cold) miss, however many
    # lines the range spans ...
    assert not cache.access_range(address, size)
    assert cache.misses == 1 and cache.hits == 0
    # ... yet every spanned line was filled: re-probing each line hits.
    first = address >> 6
    last = (address + size - 1) >> 6
    for line in range(first, last + 1):
        assert cache.access_range(line << 6, 1)
    assert cache.hits == last - first + 1
    # And the whole-range re-access is a single hit.
    assert cache.access_range(address, size)
    assert cache.accesses == 2 + (last - first + 1)
