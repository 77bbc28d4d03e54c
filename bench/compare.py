"""Compare two sets of benchmark runs: parent commit against a change.

    python3 bench/compare.py PARENT.json CHANGE.json

Each file holds the JSON lines ``bench/run.py --out FILE`` appends, one
line per run; the samples of all lines are pooled in order, so the i-th
parent sample and the i-th change sample form a pair.  Run the two
sides alternately (parent first in odd pairs, change first in even
ones) so that pairs share machine conditions.

One row per workload and end-to-end metric of BENCHMARK.json gives both
medians and interquartile ranges, the share of pairs the change wins
(ties count for neither side) and a verdict:

* ``unresolved``: either side's spread (IQR / median) is wider than the
  metric's bound, unless every change run beats every parent run;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``improved``: at least 10 pairs, the change wins at least 9 in 10, and
  the medians differ by more than the parent's IQR;
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

from run import ROOT, summarize

MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def load_samples(path: str) -> dict[tuple[str, str], list[float]]:
    """Every sample in a ``--out`` file, keyed by (workload, metric)."""
    samples: dict[tuple[str, str], list[float]] = defaultdict(list)
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            if not line.strip():
                continue
            for workload, run in json.loads(line)["workloads"].items():
                for metric, values in run["samples"].items():
                    samples[workload, metric] += values
    return samples


def verdict(
    parent: list[float], change: list[float], bound: float, lower_better: bool
) -> dict:
    """Compare one metric's samples; see the module docstring."""
    p, c = summarize(parent), summarize(change)
    sign = 1 if lower_better else -1

    def beats(a: float, b: float) -> bool:
        return sign * (a - b) < 0

    pairs = list(zip(parent, change))
    wins = sum(beats(b, a) for a, b in pairs)
    win_share = wins / len(pairs) if pairs else 0.0
    worse = sign * (c["median"] - p["median"]) / p["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (p, c))
    dominates = all(beats(b, a) for a in parent for b in change)
    if spread > bound and not dominates:
        outcome = "unresolved"
    elif worse > bound:
        outcome = "regressed"
    elif (
        len(pairs) >= MIN_PAIRS
        and win_share >= MIN_WIN_SHARE
        and -worse * p["median"] > p["q3"] - p["q1"]
    ):
        outcome = "improved"
    else:
        outcome = "unchanged"
    return {"parent": p, "change": c, "pairs": len(pairs), "win_share": win_share,
            "verdict": outcome}


def compare(parent_path: str, change_path: str, benchmark: dict) -> list[dict]:
    parent, change = load_samples(parent_path), load_samples(change_path)
    rows = []
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        for metric in benchmark["end_to_end"]:
            key = (workload, metric["name"])
            if parent.get(key) and change.get(key):
                row = verdict(
                    parent[key], change[key], metric["bound"], metric["better"] == "lower"
                )
                rows.append({"workload": workload, "metric": metric["name"],
                             "unit": metric["unit"], "bound": metric["bound"], **row})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare parent and change runs.")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(args.parent, args.change, benchmark)
    print(
        f"{'workload':<13} {'metric':<12} {'unit':<5} {'parent':>10} {'IQR':>9} "
        f"{'change':>10} {'IQR':>9} {'pairs':>5} {'wins':>5}  verdict"
    )
    for r in rows:
        p, c = r["parent"], r["change"]
        print(
            f"{r['workload']:<13} {r['metric']:<12} {r['unit']:<5} "
            f"{p['median']:>10.4g} {p['q3'] - p['q1']:>9.3g} "
            f"{c['median']:>10.4g} {c['q3'] - c['q1']:>9.3g} "
            f"{r['pairs']:>5} {r['win_share']:>5.0%}  {r['verdict']}"
        )
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
