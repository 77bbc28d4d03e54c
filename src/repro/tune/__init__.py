"""repro.tune: optimizer autotuning (DESIGN.md §16).

The paper's Figure 10 ablates six passes at one operating point; this
subsystem asks the follow-on question — which pass subsets/orderings,
fill-unit line limits, and frame-construction thresholds are actually
best *per workload*.  A typed :class:`TuneSpace` is planned (grid,
seeded random, or successive halving) into ordinary experiment cells,
executed through the matrix runner and artifact store, aggregated into a
sensitivity surface, and optionally fed back as profile-guided
frame-construction parameters (``tune pgo``).
"""

from repro.tune.space import (
    FULL_PASS_SPEC,
    TunePoint,
    TuneSpace,
    ablated_pass_spec,
    default_space,
    smoke_space,
)
from repro.tune.planner import plan_grid, plan_points, plan_random
from repro.tune.engine import SweepResult, SweepSettings, TuneError, run_sweep
from repro.tune.surface import build_surface, format_surface, surface_digest
from repro.tune.pgo import format_pgo, run_pgo, select_frame_params

__all__ = [
    "FULL_PASS_SPEC",
    "SweepResult",
    "SweepSettings",
    "TuneError",
    "TunePoint",
    "TuneSpace",
    "ablated_pass_spec",
    "build_surface",
    "default_space",
    "format_pgo",
    "format_surface",
    "plan_grid",
    "plan_points",
    "plan_random",
    "run_pgo",
    "run_sweep",
    "select_frame_params",
    "smoke_space",
    "surface_digest",
]
