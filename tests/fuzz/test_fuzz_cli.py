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
    case_id = corpus.save_case(
        genome,
        [ConfigDivergence(kind="schedule-ab", frontend="IC", detail="old")],
        found={"campaign_seed": 1, "index": 20, "config_seed": 21},
        config_json=config_to_json(generate_config(21)),
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
    # A config oracle that flags every pair: the campaign folds it into
    # a divergent case, the shrinker minimizes it on both axes, and the
    # corpus stores it as a (program, config) case.
    import repro.fuzz.campaign as campaign_mod
    import repro.fuzz.shrink as shrink_mod
    from repro.fuzz.config_oracle import ConfigDivergence, ConfigPairReport

    def flag_every_pair(genome, processor, metrics=None):
        report = ConfigPairReport(program_seed=genome.seed, simulations=7)
        report.divergences.append(
            ConfigDivergence(kind="schedule-ab", frontend="IC", detail="synthetic")
        )
        return report

    monkeypatch.setattr(campaign_mod, "run_config_differential", flag_every_pair)
    monkeypatch.setattr(shrink_mod, "run_config_differential", flag_every_pair)
    status = main(
        [
            "fuzz", "config", "run", "--seed", "1", "--iterations", "1",
            "--cache-dir", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert status == 1
    assert "1 pairs, 7 simulations" in out
    assert "1 divergent pair(s)" in out
    assert "schedule-ab" in out
    assert "->1 ops, " in out and "->0 config fields" in out
    (case,) = FuzzCorpus(ArtifactStore(tmp_path)).list_cases()
    assert "config" in case["label"]
    stored = FuzzCorpus(ArtifactStore(tmp_path)).load_case(case["id"])
    assert stored["format"] == 2
    assert set(stored["found"]) == {
        "campaign_seed", "index", "program_seed", "config_seed"
    }


def test_fuzz_run_divergent_program_is_shrunk_and_stored(
    tmp_path, capsys, monkeypatch
):
    import repro.fuzz.campaign as campaign_mod
    import repro.fuzz.shrink as shrink_mod
    from repro.fuzz.oracle import ProgramReport

    def flag_every_program(genome, metrics=None):
        report = ProgramReport(seed=genome.seed)
        report.divergences.append(
            Divergence(kind="verifier", variant="full", detail="synthetic")
        )
        return report

    monkeypatch.setattr(campaign_mod, "run_differential", flag_every_program)
    monkeypatch.setattr(shrink_mod, "run_differential", flag_every_program)
    status = main(
        [
            "fuzz", "run", "--seed", "1", "--iterations", "2",
            "--cache-dir", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert status == 1
    assert "2 divergent program(s)" in out
    assert "->1 ops in " in out
    assert "config fields" not in out
    cases = FuzzCorpus(ArtifactStore(tmp_path)).list_cases()
    assert len(cases) == 2
    stored = FuzzCorpus(ArtifactStore(tmp_path)).load_case(cases[0]["id"])
    assert stored["format"] == 1
    assert "config" not in stored


def test_fuzz_run_duration_flag_removed(capsys):
    for command in (["fuzz", "run"], ["fuzz", "config", "run"]):
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--duration", "5"])
        assert excinfo.value.code == 2
    capsys.readouterr()


def test_fuzz_repro_workload_flag_removed(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fuzz", "repro", "--workload", "gzip"])
    assert excinfo.value.code == 2
