"""Typed search space over the optimizer/frame-construction knobs.

A :class:`TunePoint` is one candidate configuration: a front end
(``replay`` or ``tcache``), an optimizer pass subset/order (or ``None``
for unoptimized rePLay — the paper's RP), the frame-constructor limits,
and the trace-cache fill-unit line limits.  Points map 1:1 onto
:class:`~repro.harness.experiment.ExperimentConfig` objects whose
fingerprints land in the artifact-store result key, so sweep cells
dedup against each other and against ordinary figure runs for free.

A :class:`TuneSpace` names the axes; the planner crosses them into a
deterministic point list.  ``default_space`` embeds the Figure 10
ablation (RP, RPO, and the six leave-one-out specs at the paper's
operating point) as an exact subset of the grid, so the sensitivity
surface generalizes fig10 rather than replacing it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields

from repro.harness.experiment import ExperimentConfig
from repro.optimizer.pipeline import (
    PASS_ALIASES,
    PASS_NAMES,
    OptimizerConfig,
    format_pass_spec,
    parse_pass_spec,
)
from repro.replay.constructor import ConstructorConfig
from repro.timing.config import ConfigError, FillUnitConfig, default_config
from repro.workloads import get_workload

__all__ = [
    "FULL_PASS_SPEC",
    "TunePoint",
    "TuneSpace",
    "ablated_pass_spec",
    "default_space",
    "smoke_space",
]

#: The full pipeline in canonical order — the RPO operating point.
FULL_PASS_SPEC = format_pass_spec(PASS_NAMES)


def ablated_pass_spec(name: str) -> str:
    """The leave-one-out spec for one Figure 10 legend name.

    Accepts canonical names and legend aliases (``asst`` for ``va``).
    """
    resolved = PASS_ALIASES.get(name, name)
    if resolved not in PASS_NAMES or resolved == "dce":
        raise ConfigError(
            "tune.ablation",
            f"cannot ablate {name!r} (choose from "
            f"{', '.join(n for n in PASS_NAMES if n != 'dce')})",
        )
    return format_pass_spec(tuple(n for n in PASS_NAMES if n != resolved))


@dataclass(frozen=True)
class TunePoint:
    """One candidate configuration in the search space.

    ``pass_spec`` is ``None`` for unoptimized rePLay (RP); the fill-unit
    fields only change behavior for the ``tcache`` front end, so replay
    points pin them at the defaults to avoid aliased grid cells.
    """

    frontend: str = "replay"  # 'replay' | 'tcache'
    pass_spec: str | None = FULL_PASS_SPEC
    frame_max_uops: int = 256
    promotion_threshold: int = 16
    backedge_close_uops: int = 128
    fill_max_uops: int = 32
    fill_max_branches: int = 3

    def validate(self) -> None:
        if self.frontend not in ("replay", "tcache"):
            raise ConfigError(
                "tune.frontend",
                f"must be 'replay' or 'tcache', got {self.frontend!r}",
            )
        if self.pass_spec is not None:
            parse_pass_spec(self.pass_spec)
        if self.frame_max_uops < 8:
            raise ConfigError(
                "tune.frame_max_uops",
                f"must be >= the constructor minimum frame (8 uops), "
                f"got {self.frame_max_uops}",
            )
        if self.promotion_threshold < 1:
            raise ConfigError(
                "tune.promotion_threshold",
                f"must be >= 1, got {self.promotion_threshold}",
            )
        if self.backedge_close_uops < 1:
            raise ConfigError(
                "tune.backedge_close_uops",
                f"must be >= 1, got {self.backedge_close_uops}",
            )
        FillUnitConfig(self.fill_max_uops, self.fill_max_branches).validate(
            "tune.fill"
        )

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, payload: dict) -> "TunePoint":
        """Strict inverse of :meth:`to_json`; validates the point.

        Unknown keys are rejected (a typoed knob silently falling back
        to its default would corrupt a sweep), and the reconstructed
        point is validated so a bad sweep file fails on load, not in a
        worker.
        """
        if not isinstance(payload, dict):
            raise ConfigError(
                "tune.point", f"payload must be an object, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(
                "tune.point", f"unknown point fields: {', '.join(unknown)}"
            )
        point = cls(**payload)
        point.validate()
        return point

    def label(self) -> str:
        """Deterministic short name — doubles as the config name in
        result entries, so the same point gets the same cache key from
        every planner and process."""
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return "tune-" + hashlib.sha256(blob.encode()).hexdigest()[:10]

    def experiment_config(self) -> ExperimentConfig:
        """Lower the point onto the experiment layer."""
        self.validate()
        processor = default_config()
        processor.fill_unit = FillUnitConfig(
            max_uops=self.fill_max_uops, max_branches=self.fill_max_branches
        )
        if self.frontend == "tcache":
            return ExperimentConfig(
                name=self.label(), frontend="tcache", processor=processor
            )
        optimize = self.pass_spec is not None
        return ExperimentConfig(
            name=self.label(),
            frontend="replay",
            optimize=optimize,
            optimizer=(
                OptimizerConfig(pass_spec=self.pass_spec)
                if optimize
                else OptimizerConfig()
            ),
            constructor=ConstructorConfig(
                max_uops=self.frame_max_uops,
                promotion_threshold=self.promotion_threshold,
                backedge_close_uops=self.backedge_close_uops,
            ),
            processor=processor,
        )


@dataclass(frozen=True)
class TuneSpace:
    """Axes the planner crosses into points.

    Replay points are the cross product of ``pass_specs`` ×
    ``frame_max_uops`` × ``promotion_thresholds`` ×
    ``backedge_close_uops`` (fill fields pinned at defaults); tcache
    points cross ``fill_max_uops`` × ``fill_max_branches`` and are only
    emitted when ``fill_max_uops`` is non-empty.
    """

    workloads: tuple[str, ...]
    pass_specs: tuple[str | None, ...] = (FULL_PASS_SPEC,)
    frame_max_uops: tuple[int, ...] = (256,)
    promotion_thresholds: tuple[int, ...] = (16,)
    backedge_close_uops: tuple[int, ...] = (128,)
    fill_max_uops: tuple[int, ...] = ()
    fill_max_branches: tuple[int, ...] = (3,)

    def validate(self) -> None:
        if not self.workloads:
            raise ConfigError("tune.workloads", "need at least one workload")
        for name in self.workloads:
            get_workload(name)  # raises KeyError on unknown names
        if not self.pass_specs and not self.fill_max_uops:
            raise ConfigError(
                "tune.space", "space has no replay and no tcache axis"
            )
        for point in self.points():
            point.validate()

    def points(self) -> list[TunePoint]:
        """The full grid, in deterministic axis-major order."""
        out: list[TunePoint] = []
        for spec in self.pass_specs:
            for frame in self.frame_max_uops:
                for promo in self.promotion_thresholds:
                    for backedge in self.backedge_close_uops:
                        out.append(
                            TunePoint(
                                frontend="replay",
                                pass_spec=spec,
                                frame_max_uops=frame,
                                promotion_threshold=promo,
                                backedge_close_uops=backedge,
                            )
                        )
        for fill_uops in self.fill_max_uops:
            for fill_branches in self.fill_max_branches:
                out.append(
                    TunePoint(
                        frontend="tcache",
                        pass_spec=None,
                        fill_max_uops=fill_uops,
                        fill_max_branches=fill_branches,
                    )
                )
        seen: set[str] = set()
        for point in out:
            label = point.label()
            if label in seen:
                raise ConfigError(
                    "tune.space", f"duplicate point {point.to_json()!r}"
                )
            seen.add(label)
        return out


#: Figure 10's ablation legend order (asst is the va alias).
FIG10_ABLATIONS = ("asst", "cp", "cse", "nop", "ra", "sf")


def default_space(workloads: tuple[str, ...] | None = None) -> TuneSpace:
    """The standard sweep: fig10 ablation subset + frame/fill curves."""
    from repro.harness.figures import FIG10_WORKLOADS

    return TuneSpace(
        workloads=tuple(workloads) if workloads else tuple(FIG10_WORKLOADS),
        pass_specs=(
            None,  # RP
            FULL_PASS_SPEC,  # RPO
            *(ablated_pass_spec(name) for name in FIG10_ABLATIONS),
        ),
        frame_max_uops=(128, 256),
        promotion_thresholds=(16,),
        backedge_close_uops=(128,),
        fill_max_uops=(16, 32, 64),
        fill_max_branches=(3,),
    )


def smoke_space(workloads: tuple[str, ...] | None = None) -> TuneSpace:
    """Tiny space for CI: 2 workloads x 6 points."""
    return TuneSpace(
        workloads=tuple(workloads) if workloads else ("gzip", "dream"),
        pass_specs=(
            None,
            FULL_PASS_SPEC,
            ablated_pass_spec("cp"),
            ablated_pass_spec("sf"),
        ),
        frame_max_uops=(256,),
        fill_max_uops=(16, 32),
    )
