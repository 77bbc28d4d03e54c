"""The repository benchmark: time the four loops users run, check outputs.

Run from the repository root:

    python3 bench/run.py [--workloads a,b] [--seed S] [--reps N] [--seconds T]
                         [--trace [0|1]] [--out FILE] [--trace-out DIR]

Every rep of a workload runs in a fresh ``bench/rep.py`` process, one
process at a time with ``jobs=1``: a closed loop with one client, where
each op starts when the previous one ends.  Reps are interleaved
round-robin across workloads.  Without ``--seconds`` each workload gets
``--reps`` reps (default 3); with it, each workload gets reps until its
timed phases add up to at least that many seconds.

The run prints each end-to-end metric per workload (unit, median,
quartiles, n), the failed checks, and with ``--trace`` the per-layer
table from one extra traced rep per workload.  Its last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics, or with ``--trace`` the per-layer
ones, named ``<workload>:<metric>`` when more than one workload ran.
The exit code is 1 if any check failed.  bench/README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from hostspeed import at_reference_speed, ops_at_reference_speed, probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
#: Output digests and Table 3 errors of whole-size reps, keyed by seed.
PINS = BENCH / "pinned.json"

#: The op each workload counts, for the report.
WORKLOADS = {
    "fig6-cold": "matrix cell",
    "ablation": "matrix cell",
    "fuzz-program": "program",
    "fuzz-config": "(program, config) pair",
}
DEFAULT_REPS = 3
#: Set-up is timed at least this often per workload and reported as a median.
SETUP_SAMPLES = 3
REP_TIMEOUT_S = 600

#: The end-to-end metrics of BENCHMARK.json.  Their times are host
#: seconds at the reference host speed (see hostspeed.py).
END_TO_END = {"wall_s": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Reported too, but not in BENCHMARK.json: the raw host times drift
#: with the machine's load, error_rate is 0 on a good run, and the
#: Table 3 errors exist for fig6-cold only.
REPORTED = {
    "host_wall_s": "s",
    "host_ops_per_s": "1/s",
    "host_setup_s": "s",
    "error_rate": "ratio",
    "ipc_gain_mae": "ratio",
    "uops_removed_mae": "ratio",
    "loads_removed_mae": "ratio",
}
UNITS = {**END_TO_END, **REPORTED}


def summarize(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and count."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def fresh_store(workload: str) -> tempfile.TemporaryDirectory:
    """An empty artifact-store directory under ``bench/.work``."""
    WORK.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(
        dir=WORK, prefix=f"{workload}-", ignore_cleanup_errors=True
    )


class WorkloadRun:
    """Everything measured for one workload in this run."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reps = 0
        self.measured_s = 0.0
        self.layers: dict[str, float] | None = None
        self.calls: dict[str, int] | None = None


class Bench:
    def __init__(self, args, pins: dict) -> None:
        self.args = args
        self.pins = pins  # this seed's entry of pinned.json

    def spawn(self, workload: str, *extra: str) -> dict | None:
        """Run one ``rep.py`` process to completion; return its JSON line.

        The line gains ``setup_s``: the child's ``ready`` stamp minus the
        monotonic time it was started at (on Linux that clock is shared
        by all processes), and ``setup_probe_s``, the host-speed probe
        around that interval.  None means the process failed.
        """
        command = [sys.executable, str(BENCH / "rep.py"), "--workload", workload]
        command += ["--seed", str(self.args.seed), *extra]
        if self.args.quick:
            command.append("--quick")
        probe_s = probe()
        started = time.monotonic()
        try:
            proc = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            print(f"{workload}: rep timed out after {REP_TIMEOUT_S} s", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: rep exited {proc.returncode}", file=sys.stderr)
            print(proc.stderr[-4000:], file=sys.stderr)
            return None
        result = json.loads(lines[-1])
        if "ready" in result:
            result["setup_s"] = result["ready"] - started
            result["setup_probe_s"] = (probe_s + result["ready_probe_s"]) / 2
        return result

    def rep(self, run: WorkloadRun, trace_out: str | None = None) -> float | None:
        """One rep of ``run.name``; returns its timed host seconds."""
        with fresh_store(run.name) as store:
            return self._rep(run, ["--store", store], trace_out)

    def _rep(self, run: WorkloadRun, store_args: list[str], trace_out: str | None):
        setup = None
        if run.name == "ablation":  # set-up is a separate trace-capture process
            setup = self.spawn(run.name, *store_args, "--setup-only")
            if setup is None:
                return self._crashed_rep(run, "trace capture")
        traced = ["--trace-out", trace_out] if trace_out else []
        outcome = self.spawn(run.name, *store_args, *traced)
        if outcome is None:
            return self._crashed_rep(run, "rep")
        wall = outcome["wall_s"]
        attempted, failed = outcome["attempted"], outcome["failed"]
        if failed:
            run.failures.append(f"{failed} of {attempted} ops failed")
        wrong_output = self._check(run.name, outcome, store_args)
        if wrong_output:
            failed = attempted  # a wrong output fails every op of the rep
            run.failures += wrong_output
        run.attempted += attempted
        run.failed += failed
        if trace_out:
            run.layers, run.calls = outcome["layers"], outcome["calls"]
            return wall
        run.reps += 1
        run.measured_s += wall
        ref_wall = ops_at_reference_speed(outcome["ops"])
        samples = run.samples
        samples["wall_s"].append(ref_wall)
        samples["ops_per_s"].append(attempted / ref_wall)
        samples["host_wall_s"].append(wall)
        samples["host_ops_per_s"].append(attempted / wall)
        self._setup_sample(run, setup or outcome)
        samples["peak_rss_mb"].append(outcome["peak_rss_mb"])
        samples["error_rate"].append(failed / attempted)
        for name, value in outcome.get("mae", {}).items():
            samples[name].append(value)
        return wall

    @staticmethod
    def _crashed(run: WorkloadRun, what: str) -> None:
        """A process that printed no result counts as one failed op."""
        run.failures.append(f"{what} process failed")
        run.attempted += 1
        run.failed += 1

    def _crashed_rep(self, run: WorkloadRun, what: str) -> None:
        self._crashed(run, what)
        run.reps += 1
        run.samples["error_rate"].append(1.0)

    @staticmethod
    def _setup_sample(run: WorkloadRun, ready: dict) -> None:
        run.samples["setup_s"].append(
            at_reference_speed(ready["setup_s"], ready["setup_probe_s"])
        )
        run.samples["host_setup_s"].append(ready["setup_s"])

    def _check(self, workload: str, outcome: dict, store_args: list[str]) -> list[str]:
        """Output checks: pinned digest and Table 3 errors, warm re-read."""
        failures = []
        pinned = self.pins.get(workload, {})
        if "digest" in pinned and outcome["digest"] != pinned["digest"]:
            failures.append(f"digest {outcome['digest']} != pinned {pinned['digest']}")
        mae = outcome.get("mae", {})
        for name, value in pinned.items():
            if name.endswith("_mae") and round(mae.get(name, -1), 4) != value:
                failures.append(f"{name} {mae.get(name)} != pinned {value}")
        if workload == "fig6-cold" and outcome["digest"] is not None:
            warm = self.spawn(workload, *store_args, "--warm")
            if warm is None or warm["digest"] != outcome["digest"]:
                failures.append("warm re-read rendered different text")
            elif warm["computed"]:
                failures.append(f"warm re-read recomputed {warm['computed']} cells")
        return failures

    def setup_probe(self, run: WorkloadRun) -> None:
        with fresh_store(run.name) as store:
            ready = self.spawn(run.name, "--store", store, "--setup-only")
        if ready is None:
            self._crashed(run, "set-up")
        else:
            self._setup_sample(run, ready)

    def wants_rep(self, run: WorkloadRun) -> bool:
        args = self.args
        if args.seconds is None:
            return run.reps < (args.reps or DEFAULT_REPS)
        if args.reps is not None and run.reps >= args.reps:
            return False
        return run.reps == 0 or run.measured_s < args.seconds


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": git_commit(),
    }


def print_report(runs: dict[str, WorkloadRun], env: dict, layer_units: dict | None) -> None:
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for run in runs.values():
        print(
            f"\n{run.name}  (op: {WORKLOADS[run.name]}; "
            f"{run.attempted} attempted, {run.failed} failed)"
        )
        print(f"  {'metric':<18} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
        for name, unit in UNITS.items():
            if not run.samples.get(name):
                continue
            s = summarize(run.samples[name])
            print(
                f"  {name:<18} {unit:<6} {s['median']:>12.6g} "
                f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['n']:>3}"
            )
        for failure in run.failures:
            print(f"  FAILED: {failure}")
    if layer_units:
        names = list(runs)
        print("\nper-layer (one traced rep each; times are self times)")
        print(f"  {'metric':<30} {'unit':<6}" + "".join(f" {n:>13}" for n in names))
        for metric, unit in layer_units.items():
            values = "".join(
                f" {runs[n].layers[metric]:>13.6g}" if runs[n].layers else f" {'-':>13}"
                for n in names
            )
            print(f"  {metric:<30} {unit:<6}{values}")


def result_line(runs: dict[str, WorkloadRun], layer_units: dict | None) -> dict:
    """The last-line JSON object."""
    metrics = {}
    for run in runs.values():
        prefix = f"{run.name}:" if len(runs) > 1 else ""
        if layer_units:
            for name, unit in layer_units.items() if run.layers else ():
                metrics[prefix + name] = {"value": run.layers[name], "unit": unit}
        else:
            for name, unit in END_TO_END.items():
                if run.samples.get(name):
                    value = summarize(run.samples[name])["median"]
                    metrics[prefix + name] = {"value": value, "unit": unit}
    failed = sum(run.failed for run in runs.values())
    correct = failed == 0 and not any(run.failures for run in runs.values())
    attempted = sum(run.attempted for run in runs.values())
    return {
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Time the repository's four user loops and check their outputs."
    )
    parser.add_argument(
        "--workloads",
        "--workload",
        default=",".join(WORKLOADS),
        help=f"comma-separated, from {', '.join(WORKLOADS)} (default: all)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--reps", type=int, help=f"reps per workload (default {DEFAULT_REPS})"
    )
    parser.add_argument(
        "--seconds",
        type=float,
        help="rep each workload until its timed phases add up to this",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        nargs="?",
        const=1,
        default=0,
        help="add one traced rep per workload and report per-layer metrics",
    )
    parser.add_argument("--out", help="append this run's samples as one JSON line")
    parser.add_argument("--trace-out", default=str(WORK), help="directory for span files")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny sizes, for the benchmark's own tests; the pins of seeds 1 "
        "and 2 are for whole sizes, so use another seed",
    )
    args = parser.parse_args(argv)
    args.workloads = args.workloads.split(",")
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {list(WORKLOADS)}")
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")
    return args


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    bench = Bench(args, pins.get(str(args.seed), {}))
    env = environment()
    runs = {name: WorkloadRun(name) for name in args.workloads}

    while pending := [run for run in runs.values() if bench.wants_rep(run)]:
        for run in pending:
            bench.rep(run)
    for run in runs.values():
        for _ in range(SETUP_SAMPLES - len(run.samples["setup_s"])):
            bench.setup_probe(run)
    layer_units = None
    if args.trace:
        from tracer import LAYER_UNITS as layer_units

        Path(args.trace_out).mkdir(parents=True, exist_ok=True)
        for run in runs.values():
            path = Path(args.trace_out) / f"trace-{run.name}-seed{args.seed}.json"
            traced_wall = bench.rep(run, trace_out=str(path))
            if run.layers is not None and run.samples.get("host_wall_s"):
                untraced = summarize(run.samples["host_wall_s"])["median"]
                run.layers["trace.overhead"] = traced_wall / untraced - 1
            else:
                run.layers = None

    print_report(runs, env, layer_units)
    result = result_line(runs, layer_units)
    if args.out:
        record = {
            "env": env,
            "seed": args.seed,
            "quick": args.quick,
            "workloads": {
                run.name: {
                    "samples": run.samples,
                    "units": {name: UNITS[name] for name in run.samples},
                    "attempted": run.attempted,
                    "failed": run.failed,
                    "failures": run.failures,
                    "layers": run.layers,
                    "calls": run.calls,
                }
                for run in runs.values()
            },
        }
        with open(args.out, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
