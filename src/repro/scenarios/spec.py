"""Scenario specs: JSON-serializable, content-addressable family recipes.

A :class:`FamilySpec` names a workload *family* (a parameterized program
generator built on the fuzz genome machinery), a family seed, and a
member count.  Expansion is pure: ``(family, seed, count)`` always
yields the same member names, the same genomes, and therefore the same
artifact-store keys — which is what lets the matrix runner and the
cache treat family members exactly like the 14 hand-written workloads.

Member names are fully self-describing (``loopy-s1-007``): pool workers
resolve workloads by name only, so everything needed to regenerate a
member must be recoverable from its name in any process.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.artifacts.store import content_key

#: Spec schema version, mixed into content ids.
SPEC_VERSION = 1

#: ``family-s<seed>-<index>`` — the self-describing member name shape.
_MEMBER_RE = re.compile(r"^([a-z][a-z0-9_]*)-s(\d+)-(\d{3,})$")


class SpecError(ValueError):
    """Raised for malformed or unknown scenario specs."""


@dataclass(frozen=True)
class FamilySpec:
    """One family expansion request: ``count`` members of ``family``."""

    family: str
    seed: int = 1
    count: int = 24
    #: Reserved for future per-spec knob overrides; kept in the content
    #: id so any use of it changes every derived key.
    params: dict = field(default_factory=dict)

    def member_names(self) -> list[str]:
        return [member_name(self.family, self.seed, i) for i in range(self.count)]

    def content_id(self) -> str:
        """SHA-256 id over the spec's canonical JSON (content-addressed)."""
        return content_key("scenario-spec", spec_to_json(self))


def spec_to_json(spec: FamilySpec) -> dict:
    return {
        "version": SPEC_VERSION,
        "family": spec.family,
        "seed": spec.seed,
        "count": spec.count,
        "params": dict(spec.params),
    }


def spec_from_json(payload: dict) -> FamilySpec:
    version = payload.get("version", SPEC_VERSION)
    if version != SPEC_VERSION:
        raise SpecError(f"unsupported scenario spec version {version!r}")
    try:
        family = str(payload["family"])
        seed = int(payload.get("seed", 1))
        count = int(payload.get("count", 24))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"malformed scenario spec: {exc}") from exc
    if seed < 0 or count < 1:
        raise SpecError(f"scenario spec needs seed >= 0 and count >= 1")
    return FamilySpec(
        family=family, seed=seed, count=count,
        params=dict(payload.get("params", {})),
    )


def member_name(family: str, seed: int, index: int) -> str:
    """Canonical member name: ``family-s<seed>-<index:03d>``."""
    if not re.match(r"^[a-z][a-z0-9_]*$", family):
        raise SpecError(f"bad family name {family!r}")
    if seed < 0 or index < 0:
        raise SpecError(f"member seed/index must be non-negative")
    return f"{family}-s{seed}-{index:03d}"


def parse_member_name(name: str) -> tuple[str, int, int] | None:
    """Inverse of :func:`member_name`; None when the shape doesn't match."""
    match = _MEMBER_RE.match(name)
    if match is None:
        return None
    return match.group(1), int(match.group(2)), int(match.group(3))


def member_genome_seed(family_seed: int, index: int, run_seed: int = 1) -> int:
    """Deterministic genome seed for one family member.

    Mixes the family seed, the member index, and the harness run seed
    (``--seed``) so distinct members — and distinct run seeds over one
    member — draw independent genomes, while staying reproducible from
    the name alone.
    """
    return (
        family_seed * 1_000_003 + index * 8191 + (run_seed - 1) * 131
    ) & 0x7FFF_FFFF
