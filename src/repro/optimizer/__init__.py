"""The rePLay optimization engine (paper §3-§4)."""

from repro.optimizer.alias import AliasClass, classify_alias, observed_disjoint, same_address
from repro.optimizer.buffer import BufferError, OptimizationBuffer
from repro.optimizer.optuop import DefRef, LiveIn, Operand, OptUop
from repro.optimizer.pipeline import FrameOptimizer, OptimizationResult, OptimizerConfig
from repro.optimizer.passes.base import OptContext, Pass, PassStats

__all__ = [
    "AliasClass",
    "BufferError",
    "DefRef",
    "FrameOptimizer",
    "LiveIn",
    "OptContext",
    "OptimizationBuffer",
    "OptimizationResult",
    "OptimizerConfig",
    "OptUop",
    "Operand",
    "Pass",
    "PassStats",
    "classify_alias",
    "observed_disjoint",
    "same_address",
]
