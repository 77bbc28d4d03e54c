"""Scenario families: deterministic expansion and registry integration.

A family spec ``(name, seed, count)`` must expand to the same member
workloads in every process — pool workers resolve members by *name
alone*, so the whole pipeline leans on this
determinism.  The cross-process test literally spawns a fresh
interpreter and compares trace digests byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from repro.artifacts.codec import encode_trace
from repro.fuzz.generator import program_to_json
from repro.scenarios.families import (
    DEFAULT_FAMILY_COUNT,
    FAMILIES,
    expand_spec,
    member_genome,
)
from repro.scenarios.spec import (
    FamilySpec,
    SpecError,
    member_genome_seed,
    member_name,
    parse_member_name,
    spec_from_json,
    spec_to_json,
)
from repro.workloads.base import (
    all_workloads,
    build_workload,
    get_workload,
    resolve_workloads,
    workload_names,
)


def test_expand_is_deterministic():
    spec = FamilySpec(family="loopy", seed=3, count=8)
    first = expand_spec(spec)
    second = expand_spec(spec)
    assert [w.name for w in first] == [w.name for w in second]
    assert len(first) == 8
    for a, b in zip(first, second):
        pa = a.build(1, 1)
        pb = b.build(1, 1)
        assert [str(i) for i in pa.instructions] == [
            str(i) for i in pb.instructions
        ]
        assert pa.data == pb.data and pa.entry == pb.entry


def test_different_seeds_expand_differently():
    base = expand_spec(FamilySpec(family="branchy", seed=1, count=4))
    other = expand_spec(FamilySpec(family="branchy", seed=2, count=4))
    assert [w.name for w in base] != [w.name for w in other]
    ga = member_genome("branchy", 1, 0)
    gb = member_genome("branchy", 2, 0)
    assert program_to_json(ga) != program_to_json(gb)


def test_genome_seed_mix_is_stable():
    # Pinned: changing this silently invalidates every family name in
    # every cached artifact and saved manifest.
    assert member_genome_seed(1, 0) == 1_000_003 & 0x7FFF_FFFF
    assert member_genome_seed(1, 3) == (1_000_003 + 3 * 8191) & 0x7FFF_FFFF
    assert member_genome_seed(7, 42, run_seed=2) == (
        7 * 1_000_003 + 42 * 8191 + 131
    ) & 0x7FFF_FFFF


def test_member_names_parse_back():
    name = member_name("stacky", 12, 7)
    assert name == "stacky-s12-007"
    assert parse_member_name(name) == ("stacky", 12, 7)
    assert parse_member_name("gzip") is None
    assert parse_member_name("loopy-s1-7") is None  # index must be 3+ digits


def test_any_wellformed_name_resolves():
    # Not in the default enumeration window (seed 7), yet resolvable by
    # name alone — that is what pool workers depend on.
    workload = get_workload("redund-s7-042")
    assert workload.category == "Family"
    trace = build_workload("redund-s7-042")
    assert len(trace) > 0


def test_registry_unchanged_and_providers_visible():
    assert len(all_workloads()) == 14  # the seed matrix stays the seed matrix
    names = workload_names()
    for family in FAMILIES:
        assert member_name(family, 1, 0) in names
    assert len(names) >= 14 + len(FAMILIES) * DEFAULT_FAMILY_COUNT


def test_resolver_globs_and_exact_names():
    loopy = resolve_workloads(["loopy-*"])
    assert len(loopy) == DEFAULT_FAMILY_COUNT
    assert loopy == sorted(loopy)
    mixed = resolve_workloads(["gzip", "loopy-s1-00[01]", "gzip"])
    assert mixed == ["gzip", "loopy-s1-000", "loopy-s1-001"]
    with pytest.raises(KeyError, match="matched nothing"):
        resolve_workloads(["loopy-s9999-*"])
    with pytest.raises(KeyError, match="unknown workload"):
        resolve_workloads(["not-a-workload"])


def test_spec_json_roundtrip_and_content_id():
    spec = FamilySpec(family="aliasy", seed=5, count=12)
    again = spec_from_json(json.loads(json.dumps(spec_to_json(spec))))
    assert again == spec
    assert again.content_id() == spec.content_id()
    assert spec.content_id() != FamilySpec(
        family="aliasy", seed=5, count=13
    ).content_id()


def test_expand_rejects_unknown_family_and_params():
    with pytest.raises(SpecError, match="unknown family"):
        expand_spec(FamilySpec(family="nosuch"))
    with pytest.raises(SpecError, match="params"):
        expand_spec(FamilySpec(family="loopy", params={"extra": 1}))


def test_family_genomes_replayable():
    workload = get_workload("branchy-s1-000")
    assert workload.genome is not None
    assert program_to_json(workload.genome(1)) == program_to_json(
        member_genome("branchy", 1, 0)
    )


def test_member_trace_byte_identical_across_processes():
    name = "loopy-s1-003"
    local = hashlib.sha256(
        encode_trace(build_workload(name))
    ).hexdigest()
    script = (
        "import hashlib\n"
        "from repro.artifacts.codec import encode_trace\n"
        "from repro.workloads.base import build_workload\n"
        f"t = build_workload({name!r})\n"
        "print(hashlib.sha256(encode_trace(t)).hexdigest())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == local
