"""The ``fuzz`` subcommand: run / repro / corpus ls."""

import json

import pytest

from repro.harness.cli import main
from repro.artifacts.store import ArtifactStore
from repro.fuzz.corpus import FuzzCorpus
from repro.fuzz.generator import generate_program
from repro.fuzz.oracle import Divergence


def test_fuzz_run_clean_campaign(tmp_path, capsys):
    status = main(
        [
            "fuzz", "run", "--seed", "1", "--iterations", "4",
            "--cache-dir", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "4 programs" in out
    assert "no divergences" in out
    assert "campaign digest: " in out


def test_fuzz_run_digest_reproducible(tmp_path, capsys):
    main(["fuzz", "run", "--seed", "9", "--iterations", "3",
          "--cache-dir", str(tmp_path)])
    first = capsys.readouterr().out
    main(["fuzz", "run", "--seed", "9", "--iterations", "3",
          "--cache-dir", str(tmp_path)])
    second = capsys.readouterr().out
    digest = [l for l in first.splitlines() if l.startswith("campaign digest")]
    assert digest == [
        l for l in second.splitlines() if l.startswith("campaign digest")
    ]


def test_fuzz_repro_replays_stored_case(tmp_path, capsys):
    corpus = FuzzCorpus(ArtifactStore(tmp_path))
    genome = generate_program(21)
    case_id = corpus.save_case(
        genome,
        [Divergence(kind="final-state", variant="full", detail="historic")],
        found={"campaign_seed": 1, "index": 20, "program_seed": 21},
    )
    status = main(
        ["fuzz", "repro", case_id[:10], "--cache-dir", str(tmp_path)]
    )
    out = capsys.readouterr().out
    # The historical divergence is fixed: replay is clean, exit 0.
    assert status == 0
    assert "no longer reproduces" in out
    assert f"seed={genome.seed}" in out


def test_fuzz_repro_unknown_case(tmp_path, capsys):
    status = main(["fuzz", "repro", "feedface", "--cache-dir", str(tmp_path)])
    assert status == 2
    assert "no fuzz case" in capsys.readouterr().err


def test_fuzz_corpus_ls(tmp_path, capsys):
    corpus = FuzzCorpus(ArtifactStore(tmp_path))
    corpus.save_case(
        generate_program(33),
        [Divergence(kind="verifier", variant="no-cp", detail="x")],
    )
    status = main(["fuzz", "corpus", "ls", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert status == 0
    assert "1 fuzz case(s)" in out
    assert "verifier" in out


def test_fuzz_run_emit_stats_ledger(tmp_path, capsys):
    ledger_path = tmp_path / "run.json"
    status = main(
        [
            "fuzz", "run", "--seed", "2", "--iterations", "2",
            "--cache-dir", str(tmp_path), "--emit-stats", str(ledger_path),
        ]
    )
    assert status == 0
    ledger = json.loads(ledger_path.read_text())
    counters = ledger["metrics"]["counters"]
    assert counters["fuzz.programs"] >= 2
    capsys.readouterr()


# ------------------------------------------------------------ config axis


def test_fuzz_config_run_clean_campaign(tmp_path, capsys):
    status = main(
        [
            "fuzz", "config", "run", "--seed", "1", "--iterations", "4",
            "--cache-dir", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "4 pairs" in out
    assert "no divergences" in out
    assert "campaign digest: " in out


def test_fuzz_config_run_digest_reproducible_across_jobs(tmp_path, capsys):
    main(["fuzz", "config", "run", "--seed", "9", "--iterations", "4",
          "--cache-dir", str(tmp_path)])
    first = capsys.readouterr().out
    main(["fuzz", "config", "run", "--seed", "9", "--iterations", "4",
          "--jobs", "2", "--cache-dir", str(tmp_path)])
    second = capsys.readouterr().out
    digest = [l for l in first.splitlines() if l.startswith("campaign digest")]
    assert digest == [
        l for l in second.splitlines() if l.startswith("campaign digest")
    ]


def test_fuzz_repro_replays_stored_config_case(tmp_path, capsys):
    from repro.fuzz.config_oracle import ConfigDivergence
    from repro.fuzz.configgen import config_to_json, generate_config

    corpus = FuzzCorpus(ArtifactStore(tmp_path))
    genome = generate_program(21)
    case_id = corpus.save_config_case(
        genome,
        config_to_json(generate_config(21)),
        [ConfigDivergence(kind="schedule-ab", frontend="IC", detail="old")],
        found={"campaign_seed": 1, "index": 20, "config_seed": 21},
    )
    status = main(
        ["fuzz", "repro", case_id[:10], "--cache-dir", str(tmp_path)]
    )
    out = capsys.readouterr().out
    # The historical divergence is fixed: replay is clean, exit 0.
    assert status == 0
    assert "config case" in out
    assert "config delta" in out
    assert "no longer reproduces" in out


def test_fuzz_config_run_emit_stats_ledger(tmp_path, capsys):
    ledger_path = tmp_path / "run.json"
    status = main(
        [
            "fuzz", "config", "run", "--seed", "2", "--iterations", "2",
            "--cache-dir", str(tmp_path), "--emit-stats", str(ledger_path),
        ]
    )
    assert status == 0
    ledger = json.loads(ledger_path.read_text())
    counters = ledger["metrics"]["counters"]
    assert counters["fuzz.config.pairs"] >= 2
    capsys.readouterr()


def test_fuzz_config_run_divergent_pair_is_shrunk_and_stored(
    tmp_path, capsys, monkeypatch
):
    import repro.fuzz.cli as cli_mod
    from repro.fuzz.campaign import ConfigCampaignResult, DivergentPair
    from repro.fuzz.config_oracle import ConfigDivergence
    from repro.fuzz.configgen import config_to_json, generate_config

    genome = generate_program(3)
    config = generate_config(3)
    result = ConfigCampaignResult(
        seed=1, pairs=1, simulations=7, jobs=1, digest="d" * 64, seconds=0.1
    )
    result.divergent.append(
        DivergentPair(
            index=0,
            program_seed=3,
            config_seed=3,
            genome=genome,
            config_json=config_to_json(config),
            divergences=[
                ConfigDivergence(
                    kind="schedule-ab", frontend="IC", detail="synthetic"
                )
            ],
        )
    )

    class FakeShrunk:
        pass

    FakeShrunk.genome = genome
    FakeShrunk.config = config
    FakeShrunk.original_ops = FakeShrunk.final_ops = len(genome.ops)
    FakeShrunk.original_fields = FakeShrunk.final_fields = 3
    FakeShrunk.attempts = 1

    monkeypatch.setattr(
        cli_mod, "run_config_campaign", lambda *a, **k: result
    )
    monkeypatch.setattr(
        cli_mod, "shrink_config_case", lambda *a, **k: FakeShrunk()
    )
    status = main(
        [
            "fuzz", "config", "run", "--seed", "1", "--iterations", "1",
            "--cache-dir", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert status == 1
    assert "1 divergent pair(s)" in out
    assert "schedule-ab" in out
    (case,) = FuzzCorpus(ArtifactStore(tmp_path)).list_cases()
    assert "config" in case["label"]


def test_fuzz_repro_workload_flag_removed(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fuzz", "repro", "--workload", "gzip"])
    assert excinfo.value.code == 2
