"""Corpus round-trips through the content-addressed artifact store."""

import pytest

from repro.artifacts.store import ArtifactStore
from repro.fuzz.corpus import CorpusError, FuzzCorpus
from repro.fuzz.generator import generate_program, program_to_json
from repro.fuzz.oracle import Divergence


def _divergence(kind="final-state"):
    return Divergence(kind=kind, variant="full", detail="x", frame_pc=0x401000)


def test_save_and_load_roundtrip(tmp_path):
    corpus = FuzzCorpus(ArtifactStore(tmp_path))
    genome = generate_program(42)
    case_id = corpus.save_case(
        genome, [_divergence()], found={"campaign_seed": 1, "index": 9}
    )
    assert len(case_id) == 64

    case = corpus.load_case(case_id)
    assert case["program"] == program_to_json(genome)
    assert case["found"] == {"campaign_seed": 1, "index": 9}
    assert case["divergences"][0]["kind"] == "final-state"


def test_same_genome_dedupes(tmp_path):
    corpus = FuzzCorpus(ArtifactStore(tmp_path))
    genome = generate_program(7)
    id_a = corpus.save_case(genome, [_divergence()])
    id_b = corpus.save_case(genome.copy(), [_divergence("verifier")])
    assert id_a == id_b
    assert len(corpus.list_cases()) == 1


def test_prefix_resolution(tmp_path):
    corpus = FuzzCorpus(ArtifactStore(tmp_path))
    genome = generate_program(13)
    case_id = corpus.save_case(genome, [_divergence()])
    assert corpus.resolve(case_id[:8]) == case_id
    loaded = corpus.load_case(case_id[:8])
    assert loaded["program"] == program_to_json(genome)


def test_unknown_prefix_rejected(tmp_path):
    corpus = FuzzCorpus(ArtifactStore(tmp_path))
    with pytest.raises(CorpusError, match="no fuzz case"):
        corpus.resolve("deadbeef")


def test_ambiguous_prefix_rejected(tmp_path):
    corpus = FuzzCorpus(ArtifactStore(tmp_path))
    ids = set()
    for seed in range(40):
        ids.add(corpus.save_case(generate_program(seed), [_divergence()]))
    # Find two ids sharing a first hex digit (40 cases over 16 digits).
    by_first = {}
    for case_id in ids:
        by_first.setdefault(case_id[0], []).append(case_id)
    prefix = next(k for k, v in by_first.items() if len(v) > 1)
    with pytest.raises(CorpusError, match="ambiguous"):
        corpus.resolve(prefix)


def test_list_cases_labels(tmp_path):
    corpus = FuzzCorpus(ArtifactStore(tmp_path))
    genome = generate_program(5)
    corpus.save_case(genome, [_divergence("assert-fired")])
    (case,) = corpus.list_cases()
    assert "assert-fired" in case["label"]
    assert f"seed={genome.seed}" in case["label"]


# -------------------------------------------------- (program, config) cases


def _config_divergence():
    from repro.fuzz.config_oracle import ConfigDivergence

    return ConfigDivergence(kind="schedule-ab", frontend="RP", detail="x")


def test_config_case_roundtrip(tmp_path):
    from repro.fuzz.configgen import config_to_json, generate_config

    corpus = FuzzCorpus(ArtifactStore(tmp_path))
    genome = generate_program(8)
    config_json = config_to_json(generate_config(8))
    case_id = corpus.save_case(
        genome,
        [_config_divergence()],
        found={"campaign_seed": 1, "index": 3, "config_seed": 77},
        config_json=config_json,
    )
    case = corpus.load_case(case_id)
    assert case["format"] == 2
    assert case["program"] == program_to_json(genome)
    assert case["config"] == config_json
    assert case["found"]["config_seed"] == 77
    assert case["divergences"][0]["kind"] == "schedule-ab"
    assert "config" in next(
        c["label"] for c in corpus.list_cases() if c["id"] == case_id
    )


def test_same_genome_different_configs_are_distinct_cases(tmp_path):
    from repro.fuzz.configgen import config_to_json, generate_config

    corpus = FuzzCorpus(ArtifactStore(tmp_path))
    genome = generate_program(9)
    id_a = corpus.save_case(
        genome,
        [_config_divergence()],
        config_json=config_to_json(generate_config(1)),
    )
    id_b = corpus.save_case(
        genome,
        [_config_divergence()],
        config_json=config_to_json(generate_config(2)),
    )
    assert id_a != id_b
    # ... and both are distinct from the program-only case of the same
    # genome.
    id_c = corpus.save_case(genome, [_divergence()])
    assert len({id_a, id_b, id_c}) == 3
    assert len(corpus.list_cases()) == 3


def test_unknown_format_still_rejected(tmp_path):
    import json as json_mod

    from repro.artifacts.store import KIND_FUZZ, content_key

    store = ArtifactStore(tmp_path)
    case_id = content_key("fuzz", {"bogus": True})
    store.put_bytes(
        KIND_FUZZ, case_id, json_mod.dumps({"format": 99}).encode()
    )
    corpus = FuzzCorpus(store)
    with pytest.raises(CorpusError, match="format"):
        corpus.load_case(case_id)


def test_case_ids_are_pinned(tmp_path):
    # Frozen values: a case id is the content key of its genome (and
    # config), so a change to the keying re-keys every stored corpus.
    from repro.fuzz.configgen import config_to_json, generate_config

    corpus = FuzzCorpus(ArtifactStore(tmp_path))
    genome = generate_program(21)
    assert corpus.save_case(genome, [_divergence()]) == (
        "eac4b7a4ba7bd6b7db2f1afeebb7b141b4c85d7c6c5e2f73b25360bd82d98aac"
    )
    assert corpus.save_case(
        genome,
        [_config_divergence()],
        config_json=config_to_json(generate_config(21)),
    ) == "dcaa949d51ab2b8e7259a2b4f048b865ac28f088f9ecb169be7d0cb1a47d63c0"
