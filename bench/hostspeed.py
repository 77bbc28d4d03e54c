"""Host-speed probe shared by ``bench/run.py`` and ``bench/rep.py``.

The machines this benchmark runs on are shared, and their speed drifts
by tens of percent over minutes (episodes of +50% lasting seconds, and
slower swings of ±25%).  Timing a fixed pure-Python loop next to every
measured interval lets the benchmark report that interval at a
reference host speed: ``interval * REFERENCE_S / probe``, where
``probe`` is the loop's time measured around the interval.
"""

from __future__ import annotations

import statistics
import time

LOOPS = 20_000

#: What :func:`probe` takes on an unloaded 2.1 GHz Intel Xeon under
#: CPython 3.11, so reference seconds read as host seconds there.
REFERENCE_S = 0.0013
#: An op is scaled by the median probe of itself and this many ops on either side.
SMOOTHING = 2


def probe() -> float:
    """Seconds this host takes for a fixed pure-Python loop right now."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while :func:`probe` took ``probe_s``."""
    return seconds * REFERENCE_S / probe_s


def ops_at_reference_speed(ops: list[list[float]]) -> float:
    """Total reference seconds of ``[latency, probe seconds]`` op pairs.

    Each op is scaled by the median probe of itself and its
    ``SMOOTHING`` neighbours on either side, so that one probe slowed
    by a brief interruption does not rescale a whole op.  This matters
    most for workloads of few, long ops: over 8 reps of ``ablation``
    (45 cells) with seed 1 it cut the coefficient of variation of the
    total from 3.8% to 2.1%.
    """
    probes = [probe_s for _, probe_s in ops]
    return sum(
        at_reference_speed(
            latency, statistics.median(probes[max(0, i - SMOOTHING) : i + SMOOTHING + 1])
        )
        for i, (latency, _) in enumerate(ops)
    )
