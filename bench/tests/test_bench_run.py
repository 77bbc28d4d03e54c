"""Tests of the benchmark itself, at tiny sizes (``--quick``).

    python -m pytest bench/tests

They are not part of tier-1: they start dozens of interpreters.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
from tracer import LAYER_MOVES, LAYERS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Seeds 1 and 2 are pinned at whole size, so ``--quick`` runs use another.
SEED = "3"


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """``bench/run.py`` run from ``cwd``, as BENCHMARK.json's command is."""
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def last_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One quick run of every workload with one traced rep each."""
    out = tmp_path_factory.mktemp("bench")
    proc = run_bench(
        "--quick", "--seed", SEED, "--reps", "1", "--trace",
        "--out", str(out / "runs.jsonl"), "--trace-out", str(out),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads((out / "runs.jsonl").read_text(encoding="utf-8"))
    return last_line(proc), record, out


def test_every_benchmark_metric_is_emitted_with_its_unit(traced):
    result, record, _ = traced
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for workload, run in record["workloads"].items():
        for metric in BENCHMARK["end_to_end"]:
            assert run["samples"][metric["name"]], (workload, metric["name"])
            assert run["units"][metric["name"]] == metric["unit"]
        for metric in BENCHMARK["per_layer"]:
            emitted = result["metrics"][f"{workload}:{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
            assert run["layers"][metric["name"]] == emitted["value"]


def test_single_workload_line_holds_exactly_the_end_to_end_metrics():
    proc = run_bench(
        "--workload", "fuzz-program", "--quick", "--seed", SEED,
        "--seconds", "0.1", "--trace", "0",
    )
    assert proc.returncode == 0, proc.stderr
    result = last_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in BENCHMARK["end_to_end"]
    }


def test_layer_self_times_and_other_add_up_to_the_traced_wall(traced):
    _, record, out = traced
    for workload, run in record["workloads"].items():
        path = out / f"trace-{workload}-seed{SEED}.json"
        spans = json.loads(path.read_text(encoding="utf-8"))
        layers = run["layers"]
        total = sum(layers[f"{layer}_s"] for layer in LAYERS) + layers["harness.other_s"]
        assert total == pytest.approx(spans["wall_s"], rel=1e-9)
        assert layers["harness.other_s"] >= 0
        assert spans["spans"], workload
        for index, span in enumerate(spans["spans"]):
            assert span["parent"] < index
            assert span["start"] <= span["end"]


def test_every_layer_that_should_move_a_workload_is_called_on_it(traced):
    _, record, _ = traced
    for layer, workloads in LAYER_MOVES.items():
        for workload in workloads:
            calls = record["workloads"][workload]["calls"]
            assert calls.get(layer, 0) > 0, (layer, workload)


def copy_bench(to: Path) -> None:
    """BENCHMARK.json and bench/ as the benchmark's checkout holds them."""
    shutil.copy(ROOT / "BENCHMARK.json", to)
    shutil.copytree(
        BENCH, to / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__")
    )


def test_a_wrong_pinned_digest_fails_every_op(tmp_path):
    copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    pins = {SEED: {"fuzz-program": {"digest": "0" * 64}}}
    (tmp_path / "bench" / "pinned.json").write_text(json.dumps(pins))
    out = tmp_path / "runs.jsonl"
    proc = run_bench(
        "--workload", "fuzz-program", "--quick", "--seed", SEED, "--reps", "1",
        "--out", str(out), cwd=tmp_path,
    )
    assert proc.returncode != 0
    result = last_line(proc)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    run = json.loads(out.read_text(encoding="utf-8"))["workloads"]["fuzz-program"]
    assert run["samples"]["error_rate"] == [1.0]


def test_without_the_simulator_source_it_fails_without_a_result(tmp_path):
    copy_bench(tmp_path)
    proc = run_bench(
        "--workload", "fig6-cold", "--seed", "1", "--seconds", "10", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _write_runs(path: Path, walls: list[float]) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        for wall in walls:  # one line per run, as alternating runs append them
            record = {"workloads": {"fuzz-program": {"samples": {"wall_s": [wall]}}}}
            stream.write(json.dumps(record) + "\n")


def test_compare_calls_a_20_percent_slowdown_regressed_and_equal_runs_unchanged(tmp_path):
    walls = [10.0 + 0.01 * (i % 4) for i in range(10)]
    parent, slower, same = tmp_path / "p.jsonl", tmp_path / "s.jsonl", tmp_path / "e.jsonl"
    _write_runs(parent, walls)
    _write_runs(slower, [1.2 * w for w in walls])
    _write_runs(same, walls)
    # BENCHMARK.json's own bounds: widening wall_s past 20% fails this test.
    [regressed] = compare.compare(str(parent), str(slower), BENCHMARK)
    [unchanged] = compare.compare(str(parent), str(same), BENCHMARK)
    assert regressed["verdict"] == "regressed" and regressed["win_share"] == 0
    assert unchanged["verdict"] == "unchanged"
    [improved] = compare.compare(str(slower), str(parent), BENCHMARK)
    assert improved["verdict"] == "improved" and improved["win_share"] == 1
