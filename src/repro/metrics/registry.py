"""Process-local metrics registry: counters, gauges, histograms, timers.

The paper's methodology is measurement-first — per-pass uop removal and
the seven-bin cycle accounting drive every figure — and the same
discipline applies to the simulator itself.  This module is the single
place run-time measurements accumulate: named counters (monotonic),
gauges (last value), histograms (count/sum/min/max) and a scoped
:func:`MetricsRegistry.timer` context manager.

Design constraints:

* **zero dependencies** — stdlib only, importable everywhere;
* **cheap** — hot layers keep their own plain-int counters (e.g.
  ``FrameCache.hits``) and publish them into a registry at run
  boundaries; per-event registry calls only happen at coarse
  granularity (per frame, per run), never per uop;
* **mergeable** — :meth:`MetricsRegistry.snapshot` produces a plain,
  picklable dict and :meth:`MetricsRegistry.merge` folds one into
  another, so per-task registries recorded inside process-pool workers
  aggregate deterministically back in the parent.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

#: Bump when the snapshot layout changes (consumed by the run ledger).
SNAPSHOT_VERSION = 2


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Summary statistics over observed samples (count/sum/min/max)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Named metric instruments."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -------------------------------------------------------- instruments

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    @contextmanager
    def timer(self, name: str):
        """Observe a scope's wall-clock seconds into ``<name>`` histogram."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.histogram(name).observe(time.perf_counter() - start)

    # ------------------------------------------------------- merge/export

    def snapshot(self) -> dict:
        """Plain-data, picklable view of every instrument."""
        return {
            "version": SNAPSHOT_VERSION,
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.value for n, g in self._gauges.items()},
            "histograms": {
                n: {"count": h.count, "sum": h.total, "min": h.min, "max": h.max}
                for n, h in self._histograms.items()
                if h.count
            },
        }

    def merge(self, snapshot: dict | "MetricsRegistry") -> None:
        """Fold a snapshot (or another registry) into this one.

        Counters add; gauges take the incoming value; histograms combine
        count/sum/min/max.
        Merging is associative and, for counters, commutative — the
        property the cross-worker aggregation tests pin down.
        """
        if isinstance(snapshot, MetricsRegistry):
            snapshot = snapshot.snapshot()
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name)
            histogram.count += data["count"]
            histogram.total += data["sum"]
            if data["min"] < histogram.min:
                histogram.min = data["min"]
            if data["max"] > histogram.max:
                histogram.max = data["max"]

    def counters(self) -> dict[str, int | float]:
        return {name: c.value for name, c in self._counters.items()}

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


#: The process-global registry: what a bare ``get_registry()`` returns and
#: where the harness accumulates a run's measurements by default.
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _GLOBAL
