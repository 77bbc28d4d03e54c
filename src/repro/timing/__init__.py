"""Timing model: processor config, caches, predictors, pipeline."""

from repro.timing.caches import Cache, CacheHierarchy
from repro.timing.config import (
    CacheConfig,
    ConfigError,
    ProcessorConfig,
    default_config,
    large_icache_config,
)
from repro.timing.pipeline import (
    BINS,
    BranchEvent,
    FetchBlock,
    PipelineModel,
    SimResult,
)
from repro.timing.predictor import (
    BranchTargetBuffer,
    FrontEndPredictors,
    GsharePredictor,
    ReturnAddressStack,
)
from repro.timing.schedule import FrameSchedule, ScheduleBuilder

__all__ = [
    "BINS",
    "BranchEvent",
    "BranchTargetBuffer",
    "Cache",
    "CacheConfig",
    "CacheHierarchy",
    "ConfigError",
    "FetchBlock",
    "FrameSchedule",
    "FrontEndPredictors",
    "GsharePredictor",
    "PipelineModel",
    "ProcessorConfig",
    "ReturnAddressStack",
    "ScheduleBuilder",
    "SimResult",
    "default_config",
    "large_icache_config",
]
