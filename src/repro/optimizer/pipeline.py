"""The rePLay optimization engine: pass scheduling and statistics.

Runs the seven optimizations over a frame's optimization buffer until a
fixed point (the paper notes the passes are synergistic — reassociation
exposes CSE/SF opportunities, every pass leaves dead code for DCE).  Each
pass can be disabled individually to reproduce the Figure 10 ablation;
dead-code elimination is always enabled, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.uops.uop import UopOp
from repro.optimizer.buffer import OptimizationBuffer
from repro.optimizer.passes.base import OptContext, PassStats
from repro.optimizer.passes.nop_removal import NopRemoval
from repro.optimizer.passes.constant_propagation import ConstantPropagation
from repro.optimizer.passes.reassociation import Reassociation
from repro.optimizer.passes.cse import CommonSubexpression
from repro.optimizer.passes.store_forwarding import StoreForwarding
from repro.optimizer.passes.value_assertion import ValueAssertion
from repro.optimizer.passes.dead_code import DeadCodeElimination

#: Canonical pass names, in pipeline order.  ``va`` (value assertion)
#: is the pass the Figure 10 legend calls ASST; ``dce`` is the always-on
#: cleanup pass (paper §6.4).
PASS_NAMES = ("nop", "cp", "ra", "cse", "sf", "va", "dce")

#: Accepted aliases (the Figure 10 legend spells value assertion ASST).
PASS_ALIASES = {"asst": "va"}

#: Pipeline rounds before the fixed-point loop gives up.
MAX_ITERATIONS = 4

_PASS_CLASSES = {
    "nop": NopRemoval,
    "cp": ConstantPropagation,
    "ra": Reassociation,
    "cse": CommonSubexpression,
    "sf": StoreForwarding,
    "va": ValueAssertion,
    "dce": DeadCodeElimination,
}


@dataclass
class OptimizerConfig:
    """Optimization-engine configuration.

    The six optional passes correspond to the Figure 10 ablation legend:
    ASST, CP, CSE, NOP, RA, SF.  ``scope`` selects frame-level vs
    intra-block optimization (Figure 9).  ``speculation`` enables the
    unsafe-store memory optimizations (§3.4).
    """

    enable_nop: bool = True
    enable_cp: bool = True
    enable_cse: bool = True
    enable_ra: bool = True
    enable_sf: bool = True
    enable_asst: bool = True
    speculation: bool = True
    scope: str = "frame"  # 'frame' | 'inter' | 'block'
    # Hardware-model parameters (paper §5.1.4): a pipelined optimizer with
    # a variable latency of 10 cycles per uop and depth 3.
    cycles_per_uop: int = 10
    pipeline_depth: int = 3

    def resolved_pass_names(self) -> tuple[str, ...]:
        """The ordered pass names this configuration runs."""
        flags = (
            ("nop", self.enable_nop),
            ("cp", self.enable_cp),
            ("ra", self.enable_ra),
            ("cse", self.enable_cse),
            ("sf", self.enable_sf),
            ("va", self.enable_asst),
        )
        return tuple(name for name, on in flags if on) + ("dce",)

    def disabled(self, name: str) -> "OptimizerConfig":
        """Copy with one optimization turned off (Figure 10 trials)."""
        from dataclasses import replace

        flag = {
            "asst": "enable_asst",
            "cp": "enable_cp",
            "cse": "enable_cse",
            "nop": "enable_nop",
            "ra": "enable_ra",
            "sf": "enable_sf",
        }[name]
        return replace(self, **{flag: False})


@dataclass
class OptimizationResult:
    """Outcome of optimizing one frame."""

    uops_before: int
    uops_after: int
    loads_before: int
    loads_after: int
    stats: PassStats

    @property
    def uops_removed(self) -> int:
        return self.uops_before - self.uops_after

    @property
    def loads_removed(self) -> int:
        return self.loads_before - self.loads_after

    @property
    def reduction(self) -> float:
        if not self.uops_before:
            return 0.0
        return self.uops_removed / self.uops_before


class FrameOptimizer:
    """Applies the optimization passes to frames.

    ``metrics`` (a :class:`repro.metrics.MetricsRegistry`, optional) is
    handed to each pass invocation so per-pass change counters accumulate
    live; with ``None`` the hook costs nothing.
    """

    def __init__(
        self, config: OptimizerConfig | None = None, metrics=None
    ) -> None:
        self.config = config or OptimizerConfig()
        self.metrics = metrics
        self._passes = self._build_passes()

    def _build_passes(self) -> list:
        # resolved_pass_names() ends with 'dce': dead-code elimination is
        # always enabled, as in the paper (§6.4).
        return [
            _PASS_CLASSES[name]()
            for name in self.config.resolved_pass_names()
        ]

    def optimize(self, buffer: OptimizationBuffer) -> OptimizationResult:
        """Run the pass pipeline on a remapped frame to a fixed point."""
        ctx = OptContext(
            scope=self.config.scope,
            speculation=self.config.speculation,
            metrics=self.metrics,
        )
        uops_before, loads_before = _counts(buffer)
        for _ in range(MAX_ITERATIONS):
            ctx.stats.iterations += 1
            total = 0
            for pass_obj in self._passes:
                total += pass_obj(buffer, ctx)
            if not total:
                break
        uops_after, loads_after = _counts(buffer)
        return OptimizationResult(
            uops_before, uops_after, loads_before, loads_after, ctx.stats
        )


def _counts(buffer: OptimizationBuffer) -> tuple[int, int]:
    """Valid uops and valid loads, in one scan."""
    ops = [uop.op for uop in buffer.uops if uop.valid]
    return len(ops), ops.count(UopOp.LOAD)
