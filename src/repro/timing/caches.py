"""Set-associative cache models with true-LRU replacement."""

from __future__ import annotations

from repro.timing.config import CacheConfig


class Cache:
    """A single cache level.  ``access_range`` returns hit/miss and fills on miss."""

    def __init__(self, config: CacheConfig) -> None:
        # Structured geometry validation: associativity=0 used to die
        # with ZeroDivisionError here, and size_bytes=0 silently built a
        # 0-set cache that crashed at the first probe (`line % 0`).
        config.validate()
        self.config = config
        self.num_sets = config.size_bytes // (config.line_bytes * config.associativity)
        self._line_shift = config.line_bytes.bit_length() - 1
        # Per-set list of tags in LRU order (front = most recent).
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def _probe_fill(self, line: int) -> bool:
        """Look up one line, refresh LRU, allocate on miss; no counters."""
        ways = self._sets[line % self.num_sets]
        if line in ways:
            ways.remove(line)
            ways.insert(0, line)
            return True
        ways.insert(0, line)
        if len(ways) > self.config.associativity:
            ways.pop()
        return False

    def access_range(self, address: int, size: int) -> bool:
        """Access a byte range; True only if every line hits.

        Counts **one** hit or miss per call (a miss if any touched line
        misses) while still filling every touched line, so ``accesses``
        equals the number of access calls — multi-word transactions no
        longer inflate the hit/miss statistics.

        A one-line access to the most recently used way of its set is
        answered first: refreshing that line cannot change the LRU
        order, so only the hit is counted.
        """
        shift = self._line_shift
        first = address >> shift
        if (address + size - 1) >> shift == first:
            ways = self._sets[first % self.num_sets]
            if ways and ways[0] == first:
                self.hits += 1
                return True
        last = (address + max(size, 1) - 1) >> shift
        hit = True
        for line in range(first, last + 1):
            hit &= self._probe_fill(line)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class CacheHierarchy:
    """L1 + shared L2 + memory, returning total access latency."""

    def __init__(
        self, l1_config: CacheConfig, l2: Cache, memory_latency: int
    ) -> None:
        self.l1 = Cache(l1_config)
        self.l2 = l2
        self.memory_latency = memory_latency

    def access(self, address: int, size: int = 1) -> int:
        """Access and return the latency in cycles."""
        latency = self.l1.config.hit_latency
        if not self.l1.access_range(address, size):
            latency += self.l2.config.hit_latency
            if not self.l2.access_range(address, size):
                latency += self.memory_latency
        return latency
