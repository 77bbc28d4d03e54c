"""Harness CLI (fast experiments only; fig6 etc. covered by benches)."""

import json
import time

import pytest

from repro.artifacts.store import ArtifactStore, content_key
from repro.harness.cli import EXPERIMENTS, cache_main, main
from repro.metrics import read_ledger


def test_table2_renders(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "gshare" in out


def test_fig2_renders(capsys):
    assert main(["fig2"]) == 0
    out = capsys.readouterr().out
    assert "frame: 10 uops" in out


def test_multiple_experiments(capsys):
    assert main(["table2", "fig2"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out and "Figure 2" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_tune_subcommand_removed(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["tune", "sweep"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'tune'" in capsys.readouterr().err


def test_experiment_list_complete():
    assert set(EXPERIMENTS) == {
        "table1", "table2", "fig2", "fig6", "fig7", "fig8", "fig9",
        "fig10", "table3",
    }


def test_run_summary_on_stderr_not_stdout(capsys, tmp_path):
    assert main(["table2", "--cache-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "[repro.artifacts]" in captured.err
    assert "[repro.artifacts]" not in captured.out


def test_no_cache_flag(capsys, tmp_path):
    assert main(["table2", "--no-cache"]) == 0
    assert "cache: disabled" in capsys.readouterr().err


def test_jobs_flag_accepted(capsys, tmp_path):
    assert main(["table2", "--jobs", "2", "--cache-dir", str(tmp_path)]) == 0
    assert "jobs: 2" in capsys.readouterr().err


def _populate(tmp_path) -> ArtifactStore:
    store = ArtifactStore(tmp_path)
    store.put_result(content_key("result", {"i": 1}), b"x" * 2048, label="demo")
    return store


def test_cache_stats(capsys, tmp_path):
    _populate(tmp_path)
    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1 entries" in out and str(tmp_path) in out


def _rejected(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        cache_main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_cache_ls(capsys, tmp_path):
    """``cache ls`` is gone: the store lists no entries for users."""
    _rejected(capsys, ["ls", "--cache-dir", str(tmp_path)], "invalid choice: 'ls'")


def test_cache_clear(capsys, tmp_path):
    store = _populate(tmp_path)
    assert cache_main(["clear", "--cache-dir", str(tmp_path)]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert store.stats()["entries"] == 0


def test_cache_gc(capsys, tmp_path):
    """``cache gc`` and its budget flags are gone: the store has no budget."""
    _rejected(capsys, ["gc", "--cache-dir", str(tmp_path)], "invalid choice: 'gc'")
    _rejected(
        capsys,
        ["stats", "--max-mb", "1", "--dry-run", "--cache-dir", str(tmp_path)],
        "unrecognized arguments: --max-mb 1 --dry-run",
    )


# ------------------------------------------------------------ run ledger


def test_emit_stats_writes_valid_ledger(capsys, tmp_path):
    ledger_path = tmp_path / "run.json"
    assert main(["table2", "--no-cache", "--emit-stats", str(ledger_path)]) == 0
    captured = capsys.readouterr()
    assert "run ledger written" in captured.err
    assert "run ledger written" not in captured.out
    ledger = read_ledger(ledger_path)  # validates the schema
    assert ledger["command"]["experiments"] == ["table2"]


def test_emit_stats_does_not_change_stdout(capsys, tmp_path):
    assert main(["table2", "--no-cache"]) == 0
    plain = capsys.readouterr().out
    assert main(
        ["table2", "--no-cache", "--emit-stats", str(tmp_path / "x.json")]
    ) == 0
    assert capsys.readouterr().out == plain


def test_stats_subcommand_pretty_prints(capsys, tmp_path):
    ledger_path = tmp_path / "run.json"
    main(["table2", "--no-cache", "--emit-stats", str(ledger_path)])
    capsys.readouterr()
    assert main(["stats", str(ledger_path)]) == 0
    out = capsys.readouterr().out
    assert "run ledger v1" in out


def test_stats_subcommand_rejects_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["stats", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_stats_subcommand_rejects_v2_sweep_ledger(capsys, tmp_path):
    ledger_path = tmp_path / "run.json"
    main(["table2", "--no-cache", "--emit-stats", str(ledger_path)])
    capsys.readouterr()
    ledger = json.loads(ledger_path.read_text())
    ledger["version"] = 2
    ledger["sweep"] = {
        "search": "grid", "seed": 1, "workloads": ["gzip"], "points": [],
        "records": [], "digest": "0" * 64,
    }
    ledger_path.write_text(json.dumps(ledger))
    assert main(["stats", str(ledger_path)]) == 1
    err = capsys.readouterr().err
    assert "ledger version 2 not supported (supported: 1)" in err
    assert "Traceback" not in err


def test_cache_subcommand_emits_ledger(capsys, tmp_path):
    _populate(tmp_path)
    ledger_path = tmp_path / "cache.json"
    assert cache_main(
        ["stats", "--cache-dir", str(tmp_path), "--emit-stats", str(ledger_path)]
    ) == 0
    ledger = read_ledger(ledger_path)
    assert ledger["command"]["experiments"] == ["cache-stats"]


def test_scenarios_characterize_json(capsys, tmp_path):
    assert main(
        ["scenarios", "characterize", "gzip", "--json", "--cache-dir", str(tmp_path)]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["reuse_by_type"], "no reuse rows"
    assert all(row["ok"] for row in report["uop_table"]), report["uop_table"]


def test_scenarios_characterize_unknown_workload(capsys, tmp_path):
    assert main(
        ["scenarios", "characterize", "nosuch", "--cache-dir", str(tmp_path)]
    ) == 2
    assert "unknown workload 'nosuch'" in capsys.readouterr().err


def test_scenarios_removed_actions_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["scenarios", "gen"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'gen'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["fuzz", "run", "--iterations", "0"], "--iterations"),
        (["fuzz", "run", "--iterations", "2", "--jobs", "-3"], "--jobs"),
        (["fuzz", "config", "run", "--iterations", "-1"], "--iterations"),
        (["fuzz", "run", "--jobs", "two"], "--jobs"),
        (["--scale", "0", "table1"], "--scale"),
        (["--jobs", "0", "table1"], "--jobs"),
        (["scenarios", "characterize", "gzip", "--scale", "-2"], "--scale"),
    ],
)
def test_count_flags_below_one_fail_before_any_work(capsys, argv, flag):
    # A count of 0 used to run nothing and report it clean (a fuzz
    # campaign printed "no divergences" over the hash of nothing).
    start = time.perf_counter()
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert excinfo.value.code == 2
    assert f"argument {flag}:" in err
    assert "Traceback" not in err
    assert elapsed < 1.0
