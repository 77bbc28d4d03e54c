"""Branch prediction: gshare, BTB, and a return-address stack.

The three structures validate their own sizes (``ConfigError`` naming
the field) so direct construction is as safe as going through
:meth:`ProcessorConfig.validate`: a 0-bit history register, a
non-power-of-two BTB, or a 0-deep RAS is a configuration bug, not a
smaller predictor.
"""

from __future__ import annotations

from repro.timing.config import ConfigError, ProcessorConfig


def _require_power_of_two(value: int, field: str) -> None:
    if value < 1 or value & (value - 1):
        raise ConfigError(field, f"must be a power of two >= 1, got {value}")


class GsharePredictor:
    """Classic gshare: global history XOR pc indexes 2-bit counters."""

    def __init__(self, history_bits: int = 18) -> None:
        if history_bits < 1:
            raise ConfigError(
                "ghr_bits",
                f"must be >= 1 (0 degenerates gshare to one counter), "
                f"got {history_bits}",
            )
        self.history_bits = history_bits
        self._mask = (1 << history_bits) - 1
        self._history = 0
        self._counters: dict[int, int] = {}  # lazily weakly-taken (2)
        self.predictions = 0
        self.mispredictions = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) & self._mask

    def predict(self, pc: int) -> bool:
        return self._counters.get(self._index(pc), 2) >= 2

    def update(self, pc: int, taken: bool) -> bool:
        """Predict, then train; returns True if the prediction was correct."""
        index = self._index(pc)
        counter = self._counters.get(index, 2)
        prediction = counter >= 2
        if taken and counter < 3:
            self._counters[index] = counter + 1
        elif not taken and counter > 0:
            self._counters[index] = counter - 1
        self._history = ((self._history << 1) | int(taken)) & self._mask
        self.predictions += 1
        correct = prediction == taken
        if not correct:
            self.mispredictions += 1
        return correct


class BranchTargetBuffer:
    """Direct-mapped BTB storing the last target per branch site."""

    def __init__(self, entries: int = 4096) -> None:
        _require_power_of_two(entries, "btb_entries")
        self.entries = entries
        self._table: dict[int, tuple[int, int]] = {}  # index -> (tag, target)

    def predict(self, pc: int) -> int | None:
        index = (pc >> 2) % self.entries
        entry = self._table.get(index)
        if entry is None or entry[0] != pc:
            return None
        return entry[1]

    def update(self, pc: int, target: int) -> None:
        index = (pc >> 2) % self.entries
        self._table[index] = (pc, target)


class ReturnAddressStack:
    """Fixed-depth RAS; overflow wraps (oldest entry lost)."""

    def __init__(self, depth: int = 16) -> None:
        if depth < 1:
            raise ConfigError("ras_depth", f"must be >= 1, got {depth}")
        self.depth = depth
        self._stack: list[int] = []

    def push(self, address: int) -> None:
        self._stack.append(address)
        if len(self._stack) > self.depth:
            self._stack.pop(0)

    def pop(self) -> int | None:
        if self._stack:
            return self._stack.pop()
        return None


class FrontEndPredictors:
    """Bundle of the front-end prediction structures."""

    def __init__(self, config: ProcessorConfig) -> None:
        self.gshare = GsharePredictor(config.ghr_bits)
        self.btb = BranchTargetBuffer(config.btb_entries)
        self.ras = ReturnAddressStack(config.ras_depth)
