"""Workload families: hundreds of matrix cells from five generators.

Each family derives a per-member :class:`GeneratorConfig` from the fuzz
generator's scenario knobs, draws a genome with
:func:`repro.fuzz.generator.generate_program`, and renders it into an
ordinary :class:`~repro.workloads.base.Workload`.  Everything is keyed
off the member *name* (``loopy-s1-007``), so any process — pool worker
or a fresh interpreter — regenerates the identical program without
shipping objects across the boundary.

The five families stress the optimizer along the axes the paper's 14
synthetics only sample:

* ``loopy``   — nested counted loops (frame constructor span stress);
* ``branchy`` — swept branch bias and density (assertion conversion);
* ``aliasy``  — pinned ESI/EDI alias distance pools (unsafe stores);
* ``redund``  — same-site load pairs and store-then-reload chains
  (CSE / store-forwarding fodder);
* ``stacky``  — leaf-helper call traffic (return-stack, push/pop).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.fuzz.generator import (
    FuzzProgram,
    GeneratorConfig,
    generate_program,
    render_program,
)
from repro.workloads.base import Workload
from repro.x86.assembler import Program

from repro.scenarios.spec import (
    FamilySpec,
    SpecError,
    member_genome_seed,
    member_name,
    parse_member_name,
)

#: Family seed used for the default (glob-visible) member enumeration.
DEFAULT_FAMILY_SEED = 1

#: Default members per family — 5 x 24 = 120 enumerable cells.
DEFAULT_FAMILY_COUNT = 24


@dataclass(frozen=True)
class Family:
    """One family: a name plus a per-member config derivation rule."""

    name: str
    description: str
    derive: Callable[[random.Random], GeneratorConfig]


def _loopy(rng: random.Random) -> GeneratorConfig:
    return GeneratorConfig(
        min_body_ops=8,
        max_body_ops=18,
        loop_nesting=rng.choice((2, 2, 3)),
        max_inner_iterations=rng.choice((3, 4, 5, 6)),
    )


def _branchy(rng: random.Random) -> GeneratorConfig:
    return GeneratorConfig(
        min_body_ops=8,
        max_body_ops=20,
        branch_bias=rng.choice((0.1, 0.3, 0.5, 0.7, 0.9, 0.95)),
        branch_density=rng.choice((0.15, 0.25, 0.35)),
    )


def _aliasy(rng: random.Random) -> GeneratorConfig:
    return GeneratorConfig(
        min_body_ops=8,
        max_body_ops=18,
        alias_deltas=rng.choice(
            ((0,), (1,), (2,), (3,), (0, 4), (1, 2, 3), (4, 8), (64,))
        ),
        redundancy=rng.choice((0.0, 0.15)),
    )


def _redund(rng: random.Random) -> GeneratorConfig:
    return GeneratorConfig(
        min_body_ops=10,
        max_body_ops=22,
        redundancy=rng.choice((0.2, 0.4, 0.6, 0.8)),
        alias_deltas=rng.choice(((0,), (0, 4), (4, 8))),
    )


def _stacky(rng: random.Random) -> GeneratorConfig:
    return GeneratorConfig(
        min_body_ops=8,
        max_body_ops=18,
        call_weight=rng.choice((0.15, 0.25, 0.35)),
        loop_nesting=rng.choice((1, 2)),
    )


FAMILIES: dict[str, Family] = {
    family.name: family
    for family in (
        Family("loopy", "nested counted loops", _loopy),
        Family("branchy", "swept branch bias/density", _branchy),
        Family("aliasy", "pinned load/store alias distance", _aliasy),
        Family("redund", "CSE and store-forwarding fodder", _redund),
        Family("stacky", "leaf-helper call traffic", _stacky),
    )
}


def member_config(family: str, family_seed: int, index: int) -> GeneratorConfig:
    """The member's generator config, derived deterministically by name."""
    try:
        derive = FAMILIES[family].derive
    except KeyError:
        raise SpecError(
            f"unknown family {family!r}; known: {sorted(FAMILIES)}"
        ) from None
    rng = random.Random(member_genome_seed(family_seed, index) ^ 0x5CE7A210)
    return derive(rng)


def member_genome(
    family: str, family_seed: int, index: int, run_seed: int = 1
) -> FuzzProgram:
    """The member's genome for one harness run seed (pure function)."""
    config = member_config(family, family_seed, index)
    return generate_program(
        member_genome_seed(family_seed, index, run_seed), config
    )


def _scaled(genome: FuzzProgram, scale: int) -> FuzzProgram:
    if scale <= 1:
        return genome
    scaled = genome.copy()
    scaled.iterations *= scale
    return scaled


def member_workload(family: str, family_seed: int, index: int) -> Workload:
    """Materialize one family member as a registerable workload."""
    name = member_name(family, family_seed, index)
    config = member_config(family, family_seed, index)

    def build(scale: int, seed: int) -> Program:
        genome = member_genome(family, family_seed, index, run_seed=seed)
        return render_program(_scaled(genome, scale))

    def genome(seed: int = 1) -> FuzzProgram:
        return member_genome(family, family_seed, index, run_seed=seed)

    knobs = ", ".join(
        f"{k}={v}"
        for k, v in (
            ("nesting", config.loop_nesting if config.loop_nesting > 1 else None),
            ("bias", config.branch_bias),
            ("density", config.branch_density or None),
            ("alias", config.alias_deltas),
            ("redund", config.redundancy or None),
            ("calls", config.call_weight or None),
        )
        if v is not None
    )
    return Workload(
        name=name,
        category="Family",
        description=f"{FAMILIES[family].description} ({knobs})",
        build=build,
        genome=genome,
    )


def expand_spec(spec: FamilySpec) -> list[Workload]:
    """Expand a spec into its member workloads (deterministic order)."""
    if spec.family not in FAMILIES:
        raise SpecError(
            f"unknown family {spec.family!r}; known: {sorted(FAMILIES)}"
        )
    if spec.params:
        raise SpecError("scenario spec params are not supported yet")
    return [
        member_workload(spec.family, spec.seed, index)
        for index in range(spec.count)
    ]


class FamilyProvider:
    """Name-driven lazy workload provider for all family members.

    ``lookup`` accepts *any* well-formed member name (cross-process
    resolution never depends on prior expansion); ``names`` enumerates
    the default seed-1 window per family plus any members expanded via
    ``scenarios gen`` in this process, so globs have a stable universe.
    """

    def __init__(self) -> None:
        self._extra: set[str] = set()

    def note_expanded(self, names: Iterable[str]) -> None:
        self._extra.update(names)

    def lookup(self, name: str) -> Workload | None:
        parsed = parse_member_name(name)
        if parsed is None:
            return None
        family, family_seed, index = parsed
        if family not in FAMILIES:
            return None
        return member_workload(family, family_seed, index)

    def names(self) -> list[str]:
        defaults = [
            member_name(family, DEFAULT_FAMILY_SEED, index)
            for family in sorted(FAMILIES)
            for index in range(DEFAULT_FAMILY_COUNT)
        ]
        return sorted(set(defaults) | self._extra)


#: The process-wide provider instance (installed by repro.scenarios).
PROVIDER = FamilyProvider()
