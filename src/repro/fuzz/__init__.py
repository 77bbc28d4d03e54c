"""repro.fuzz — differential fuzzing of optimizer/frame semantics.

The paper's premise (§5.1.3) is that an optimized frame is
architecturally equivalent to the instruction stream it replaces.  The
fourteen fixed workloads exercise only a sliver of the seven-pass
optimizer's input space; this package closes the gap the way "Verifying
x86 Instruction Implementations" does for hardware decode — by
differentially checking randomly generated programs:

* :mod:`repro.fuzz.generator` — a seeded random x86 program generator
  (straight-line ALU/flag code, MOVZX/MOVSX into dirty registers,
  aliasing load/store traffic, biased branches sized to trigger frame
  construction);
* :mod:`repro.fuzz.oracle` — the differential oracle: emulate → trace →
  frame construction → optimizer (at every pass subset) → whole-trace
  frame replay plus :class:`~repro.verify.verifier.StateVerifier`
  checks against the unoptimized emulation;
* :mod:`repro.fuzz.shrink` — a delta-debugging shrinker that minimizes
  divergent cases;
* :mod:`repro.fuzz.corpus` — minimized repros in the content-addressed
  artifact store;
* :mod:`repro.fuzz.campaign` — seed-derived, byte-reproducible
  campaigns fanned out over the parallel runner, one engine for both
  axes.

The **configuration axis** gets the same treatment:

* :mod:`repro.fuzz.configgen` — a seeded generator of
  valid-by-construction :class:`~repro.timing.config.ProcessorConfig`
  samples (widths, FU counts, cache geometries, latencies, predictor
  sizes), plus greedy shrink-toward-default steps;
* :mod:`repro.fuzz.config_oracle` — the config-differential oracle:
  each (program, config) pair must satisfy template-vs-reference
  scheduling identity and retire conservation under arbitrary valid
  geometries, and is checked for capacity widening costing cycles.

Every random decision flows from an explicit ``random.Random(seed)``;
no module-level randomness is used anywhere in the package.
"""

from repro.fuzz.generator import (
    FuzzProgram,
    GeneratorConfig,
    generate_program,
    program_from_json,
    program_to_json,
    render_program,
)
from repro.fuzz.oracle import (
    Divergence,
    ProgramReport,
    run_differential,
)
from repro.fuzz.campaign import (
    CampaignConfig,
    CampaignResult,
    ConfigCampaignConfig,
    run_campaign,
    run_config_campaign,
)
from repro.fuzz.config_oracle import (
    ConfigDivergence,
    ConfigPairReport,
    run_config_differential,
)
from repro.fuzz.configgen import (
    config_from_json,
    config_to_json,
    generate_config,
)
from repro.fuzz.shrink import shrink_case
from repro.fuzz.corpus import FuzzCorpus

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "ConfigCampaignConfig",
    "ConfigDivergence",
    "ConfigPairReport",
    "Divergence",
    "FuzzCorpus",
    "FuzzProgram",
    "GeneratorConfig",
    "ProgramReport",
    "config_from_json",
    "config_to_json",
    "generate_config",
    "generate_program",
    "program_from_json",
    "program_to_json",
    "render_program",
    "run_campaign",
    "run_config_campaign",
    "run_config_differential",
    "run_differential",
    "shrink_case",
]
