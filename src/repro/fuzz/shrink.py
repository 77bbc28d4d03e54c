"""Delta-debugging shrinker for divergent fuzz cases.

Given a genome the oracle flags, the shrinker searches for the smallest
edited genome that *still* diverges, so the stored repro and the derived
regression test exercise one miscompile instead of a 16-op haystack:

1. **ddmin over body ops** — classic delta debugging (Zeller) on the op
   list: try dropping chunks of exponentially shrinking size, restart at
   coarse granularity after any success;
2. **iteration halving** — biased loops need only enough trips to build
   and dispatch a frame;
3. **field simplification** — zero the data region, zero scratch
   register seeds, collapse ``alias_delta`` to 0, and simplify op
   immediates/displacements toward 0.

A (program, config) pair from the config-differential oracle adds the
**config axis**: non-default config fields are greedily restored to
their :func:`default_config` values (whole cache levels as a unit),
before and after the program-axis passes above, so a minimized case
names the smallest knob set — and smallest program — that still breaks
the timing model.

Every candidate is judged by re-running the oracle that flagged it; a
candidate "still diverges" only if it reports at least one divergence
whose *kind* appeared in the original report (so shrinking cannot walk
from an optimizer miscompile to an unrelated artifact).  Candidates
that fail to render or halt count as non-divergent and are skipped.
The attempt budget, shared by every phase, bounds worst-case shrink
cost on pathological genomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.timing.config import ProcessorConfig

from repro.fuzz.config_oracle import run_config_differential
from repro.fuzz.configgen import config_delta, shrink_steps
from repro.fuzz.generator import FuzzProgram
from repro.fuzz.oracle import run_differential

#: Default oracle-run budgets: a pair's candidates each run ~7 full
#: simulations, so its budget is smaller.
PROGRAM_ATTEMPTS = 400
PAIR_ATTEMPTS = 250


@dataclass
class ShrinkResult:
    """Outcome of one shrink run; ``config`` is None for program cases."""

    genome: FuzzProgram
    config: ProcessorConfig | None
    attempts: int
    reductions: int
    original_ops: int
    final_ops: int
    original_fields: int = 0  # config fields departing from default, before
    final_fields: int = 0  # ... and after


def shrink_case(
    genome: FuzzProgram,
    processor: ProcessorConfig | None = None,
    max_attempts: int | None = None,
) -> ShrinkResult:
    """Minimize a divergent case while it keeps diverging.

    Without ``processor`` the genome is a program case for the semantic
    oracle; with one, a (program, config) pair for the config oracle,
    shrunk on both axes.  Returns the smallest divergent case found
    within ``max_attempts`` oracle runs (default: the axis budget).
    """
    if processor is None:
        budget = PROGRAM_ATTEMPTS

        def run(candidate: FuzzProgram, _config):
            return run_differential(candidate)

    else:
        budget, run = PAIR_ATTEMPTS, run_config_differential

    if max_attempts is None:
        max_attempts = budget
    shrinker = _Shrinker(genome, processor, run, max_attempts)
    shrinker.run()
    result = ShrinkResult(
        genome=shrinker.best,
        config=shrinker.config,
        attempts=shrinker.attempts,
        reductions=shrinker.reductions,
        original_ops=len(genome.ops),
        final_ops=len(shrinker.best.ops),
    )
    if processor is not None:
        result.original_fields = len(config_delta(processor))
        result.final_fields = len(config_delta(shrinker.config))
    return result


class _Shrinker:
    """ddmin over a genome (and its config, when it has one) against the
    oracle that flagged it."""

    def __init__(
        self,
        genome: FuzzProgram,
        config: ProcessorConfig | None,
        run: Callable,
        max_attempts: int,
    ) -> None:
        self._run = run
        self.max_attempts = max_attempts
        self.attempts = 0
        self.reductions = 0
        self.best = genome.copy()
        self.config = config
        self.target_kinds = self._kinds(genome, config)
        if not self.target_kinds:
            raise ValueError("shrink_case called on a non-divergent case")

    # ---------------------------------------------------------- predicate

    def _kinds(self, genome: FuzzProgram, config) -> set[str]:
        try:
            report = self._run(genome, config)
        except Exception:  # noqa: BLE001 - unrunnable candidate
            return set()
        return {d.kind for d in report.divergences}

    def _still_diverges(self, candidate: FuzzProgram, config) -> bool:
        if self.attempts >= self.max_attempts:
            return False
        self.attempts += 1
        return bool(self._kinds(candidate, config) & self.target_kinds)

    def _accept(self, candidate: FuzzProgram) -> bool:
        if self._still_diverges(candidate, self.config):
            self.best = candidate
            self.reductions += 1
            return True
        return False

    # --------------------------------------------------------------- run

    def run(self) -> None:
        # Config first: each restored field removes a whole sampled
        # dimension, the cheapest big win.
        self._shrink_config()
        self._ddmin_ops()
        self._shrink_iterations()
        self._simplify_fields()
        # Dropping ops can unlock further drops after simplification,
        # and can make more config fields irrelevant.
        self._ddmin_ops()
        self._shrink_config()

    def _shrink_config(self) -> None:
        """Restore config fields to their defaults, front-most first,
        restarting after every success."""
        progressed = self.config is not None
        while progressed:
            progressed = False
            for candidate in shrink_steps(self.config):
                if self._still_diverges(self.best, candidate):
                    self.config = candidate
                    self.reductions += 1
                    progressed = True
                    break

    def _ddmin_ops(self) -> None:
        """Drop chunks of body ops, halving chunk size on failure."""
        chunk = max(1, len(self.best.ops) // 2)
        while chunk >= 1 and self.attempts < self.max_attempts:
            start = 0
            progressed = False
            while start < len(self.best.ops):
                candidate = self.best.copy()
                del candidate.ops[start : start + chunk]
                if candidate.ops and self._accept(candidate):
                    progressed = True
                    # Same start now addresses the next chunk.
                else:
                    start += chunk
                if self.attempts >= self.max_attempts:
                    return
            if progressed and chunk > 1:
                chunk = max(1, len(self.best.ops) // 2)  # restart coarse
            else:
                chunk //= 2

    def _shrink_iterations(self) -> None:
        """Halve the loop trip count toward the constructor's minimum."""
        while self.best.iterations > 2 and self.attempts < self.max_attempts:
            candidate = self.best.copy()
            candidate.iterations = max(2, candidate.iterations // 2)
            if not self._accept(candidate):
                break

    def _simplify_fields(self) -> None:
        """Zero out inputs one family at a time; keep what still diverges."""
        candidate = self.best.copy()
        candidate.data = [0] * len(candidate.data)
        self._accept(candidate)

        candidate = self.best.copy()
        candidate.reg_init = {name: 0 for name in candidate.reg_init}
        self._accept(candidate)

        if self.best.alias_delta != 0:
            candidate = self.best.copy()
            candidate.alias_delta = 0
            self._accept(candidate)

        # Per-op simplification.  ``FuzzProgram.copy`` is shallow at the
        # operand level, so every edit rebuilds the op dict (and any
        # nested operand) instead of mutating in place.
        for index in range(len(self.best.ops)):
            if self.attempts >= self.max_attempts:
                return
            op = self.best.ops[index]
            if op.get("disp"):
                candidate = self.best.copy()
                candidate.ops[index] = {**op, "disp": 0}
                self._accept(candidate)
            op = self.best.ops[index]
            for key in ("src", "right", "count"):
                operand = op.get(key)
                if isinstance(operand, dict) and operand.get("imm"):
                    candidate = self.best.copy()
                    candidate.ops[index] = {**op, key: {"imm": 0}}
                    self._accept(candidate)
