"""Sensitivity surfaces: aggregate sweep records into a fig10-style report.

The surface generalizes Figure 10: instead of six leave-one-out bars at
one operating point, it reports — per workload and sliced by workload
category (the :mod:`repro.scenarios` characterization axis) —

* best/worst configurations by IPC,
* the marginal contribution of each optimizer pass (leave-one-out
  relative IPC *and* presence/absence subset deltas),
* frame-size and fill-unit response curves,
* the exact fig10 ablation slice whenever the sweep contains the RP,
  RPO, and leave-one-out points (``default_space`` always does).

Everything is computed from the canonical record list alone, so a
report rebuilt from a stored sweep equals the original, and
``surface_digest`` is pinnable in CI.
"""

from __future__ import annotations

import hashlib
import json

from repro.harness.figures import relative_ipc
from repro.optimizer.pipeline import PASS_NAMES
from repro.tune.space import FULL_PASS_SPEC, TunePoint, ablated_pass_spec
from repro.workloads import get_workload

__all__ = ["build_surface", "format_surface", "surface_digest"]

SURFACE_SCHEMA = "repro-uopt/tune-surface"
SURFACE_VERSION = 1

#: Ablatable passes (everything but the always-on dce terminal).
_ABLATABLE = tuple(n for n in PASS_NAMES if n != "dce")

#: The default-knob operating point, for locating RP/RPO/ablation cells.
_DEFAULTS = TunePoint()


def _round(value: float) -> float:
    return round(float(value), 6)


def _is_default_replay(point: dict) -> bool:
    """True when the point sits at the paper's replay operating point
    (default constructor knobs), whatever its pass spec."""
    return (
        point["frontend"] == "replay"
        and point["frame_max_uops"] == _DEFAULTS.frame_max_uops
        and point["promotion_threshold"] == _DEFAULTS.promotion_threshold
        and point["backedge_close_uops"] == _DEFAULTS.backedge_close_uops
    )


def build_surface(records: list[dict]) -> dict:
    """Aggregate canonical sweep records into the surface report."""
    by_workload: dict[str, list[dict]] = {}
    for record in records:
        by_workload.setdefault(record["workload"], []).append(record)

    workloads: dict[str, dict] = {}
    fig10: dict[str, dict] = {}
    frame_response: dict[str, list] = {}
    fill_response: dict[str, list] = {}
    categories: dict[str, list[str]] = {}

    for workload in sorted(by_workload):
        cells = by_workload[workload]
        try:
            category = get_workload(workload).category
        except KeyError:
            category = "Unknown"
        categories.setdefault(category, []).append(workload)

        replay = [c for c in cells if c["point"]["frontend"] == "replay"]
        optimized = [c for c in replay if c["point"]["pass_spec"] is not None]
        ranked = sorted(
            optimized,
            key=lambda c: (-c["entry"]["ipc_x86"], c["label"]),
        )
        rp = _find(cells, lambda p: _is_default_replay(p) and p["pass_spec"] is None)
        rpo = _find(
            cells,
            lambda p: _is_default_replay(p) and p["pass_spec"] == FULL_PASS_SPEC,
        )
        entry = {
            "category": category,
            "cells": len(cells),
            "rp_ipc": _round(rp["entry"]["ipc_x86"]) if rp else None,
            "rpo_ipc": _round(rpo["entry"]["ipc_x86"]) if rpo else None,
        }
        if ranked:
            entry["best"] = _cell_summary(ranked[0])
            entry["worst"] = _cell_summary(ranked[-1])
            if rp and rp["entry"]["ipc_x86"] > 0:
                entry["best_gain"] = _round(
                    ranked[0]["entry"]["ipc_x86"] / rp["entry"]["ipc_x86"] - 1.0
                )
        workloads[workload] = entry

        ablation = _fig10_slice(cells, rp, rpo)
        if ablation:
            fig10[workload] = ablation

        curve = sorted(
            {
                c["point"]["frame_max_uops"]: _round(c["entry"]["ipc_x86"])
                for c in optimized
                if c["point"]["pass_spec"] == FULL_PASS_SPEC
                and c["point"]["promotion_threshold"]
                == _DEFAULTS.promotion_threshold
                and c["point"]["backedge_close_uops"]
                == _DEFAULTS.backedge_close_uops
            }.items()
        )
        if len(curve) > 1:
            frame_response[workload] = [list(pair) for pair in curve]

        tcache_curve = sorted(
            {
                c["point"]["fill_max_uops"]: _round(c["entry"]["ipc_x86"])
                for c in cells
                if c["point"]["frontend"] == "tcache"
                and c["point"]["fill_max_branches"]
                == _DEFAULTS.fill_max_branches
            }.items()
        )
        if len(tcache_curve) > 1:
            fill_response[workload] = [list(pair) for pair in tcache_curve]

    return {
        "schema": SURFACE_SCHEMA,
        "version": SURFACE_VERSION,
        "cells": len(records),
        "workloads": workloads,
        "pass_marginals": _pass_marginals(by_workload),
        "frame_response": frame_response,
        "fill_response": fill_response,
        "fig10": fig10,
        "slices": _category_slices(categories, workloads),
    }


def _find(cells: list[dict], predicate) -> dict | None:
    for cell in cells:
        if predicate(cell["point"]):
            return cell
    return None


def _cell_summary(cell: dict) -> dict:
    point = cell["point"]
    return {
        "label": cell["label"],
        "pass_spec": point["pass_spec"],
        "frame_max_uops": point["frame_max_uops"],
        "promotion_threshold": point["promotion_threshold"],
        "backedge_close_uops": point["backedge_close_uops"],
        "ipc_x86": _round(cell["entry"]["ipc_x86"]),
        "uop_reduction": _round(cell["entry"].get("uop_reduction", 0.0)),
    }


def _fig10_slice(cells: list[dict], rp: dict | None, rpo: dict | None) -> dict:
    """Relative-IPC ablation bars through fig10's own normalization
    (:func:`repro.harness.figures.relative_ipc`).  A workload whose RP
    and RPO IPCs coincide has no scale and gets no slice."""
    if rp is None or rpo is None:
        return {}
    rp_ipc = rp["entry"]["ipc_x86"]
    rpo_ipc = rpo["entry"]["ipc_x86"]
    if rpo_ipc == rp_ipc:
        return {}
    out: dict[str, float] = {}
    for name in _ABLATABLE:
        spec = ablated_pass_spec(name)
        cell = _find(
            cells,
            lambda p, spec=spec: _is_default_replay(p) and p["pass_spec"] == spec,
        )
        if cell is not None:
            out[f"no-{name}"] = _round(
                relative_ipc(cell["entry"]["ipc_x86"], rp_ipc, rpo_ipc)
            )
    return out


def _pass_marginals(by_workload: dict[str, list[dict]]) -> dict:
    """Per-pass sensitivity across the whole sweep.

    ``subset_delta`` is mean IPC over optimized cells whose spec
    contains the pass minus the mean over cells without it — a coarse
    marginal that uses *every* replay point, not just the canonical
    ablation pair.
    """
    marginals: dict[str, dict] = {}
    for name in _ABLATABLE:
        with_pass: list[float] = []
        without_pass: list[float] = []
        loo: list[float] = []
        for workload, cells in by_workload.items():
            rp = _find(
                cells, lambda p: _is_default_replay(p) and p["pass_spec"] is None
            )
            rpo = _find(
                cells,
                lambda p: _is_default_replay(p)
                and p["pass_spec"] == FULL_PASS_SPEC,
            )
            ablation = _fig10_slice(cells, rp, rpo)
            if f"no-{name}" in ablation:
                loo.append(ablation[f"no-{name}"])
            for cell in cells:
                point = cell["point"]
                if point["frontend"] != "replay" or point["pass_spec"] is None:
                    continue
                names = point["pass_spec"].split(",")
                (with_pass if name in names else without_pass).append(
                    cell["entry"]["ipc_x86"]
                )
        entry: dict = {}
        if loo:
            # Mean leave-one-out bar: 1.0 means removing the pass costs
            # nothing; lower means the pass carries more of RPO's gain.
            entry["leave_one_out"] = _round(sum(loo) / len(loo))
        if with_pass and without_pass:
            entry["subset_delta"] = _round(
                sum(with_pass) / len(with_pass)
                - sum(without_pass) / len(without_pass)
            )
        if entry:
            marginals[name] = entry
    return marginals


def _category_slices(
    categories: dict[str, list[str]], workloads: dict[str, dict]
) -> dict:
    slices: dict[str, dict] = {}
    for category in sorted(categories):
        members = categories[category]
        gains = [
            workloads[w]["best_gain"]
            for w in members
            if "best_gain" in workloads[w]
        ]
        entry: dict = {"workloads": sorted(members)}
        if gains:
            entry["mean_best_gain"] = _round(sum(gains) / len(gains))
        slices[category] = entry
    return slices


def surface_digest(surface: dict) -> str:
    """SHA-256 over the canonical dump — pinnable in CI."""
    blob = json.dumps(surface, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def format_surface(surface: dict) -> str:
    """Pretty multi-section table for terminals."""
    lines: list[str] = []
    lines.append(
        f"tune surface: {surface['cells']} cells over "
        f"{len(surface['workloads'])} workloads"
    )
    lines.append("")
    header = (
        f"{'workload':<10} {'cat':<9} {'RP':>7} {'RPO':>7} "
        f"{'best':>7} {'gain%':>7}  best point"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for workload, entry in surface["workloads"].items():
        best = entry.get("best")
        lines.append(
            f"{workload:<10} {entry['category'][:9]:<9} "
            f"{_fmt(entry['rp_ipc']):>7} {_fmt(entry['rpo_ipc']):>7} "
            f"{_fmt(best['ipc_x86']) if best else '-':>7} "
            f"{_fmt(entry.get('best_gain', None), pct=True):>7}  "
            f"{_describe(best) if best else '-'}"
        )
    if surface["pass_marginals"]:
        lines.append("")
        lines.append("pass marginals (leave-one-out rel. IPC / subset IPC delta):")
        for name, entry in surface["pass_marginals"].items():
            lines.append(
                f"  {name:<5} loo={_fmt(entry.get('leave_one_out'))} "
                f"delta={_fmt(entry.get('subset_delta'))}"
            )
    if surface["fig10"]:
        lines.append("")
        lines.append("fig10 ablation slice (relative IPC, 1.0 = RPO):")
        for workload, bars in surface["fig10"].items():
            bar_text = " ".join(f"{k}={v:.3f}" for k, v in bars.items())
            lines.append(f"  {workload:<10} {bar_text}")
    for title, curves, unit in (
        ("frame-size response (max_uops -> IPC)", surface["frame_response"], ""),
        ("fill-unit response (max_uops -> IPC)", surface["fill_response"], ""),
    ):
        if curves:
            lines.append("")
            lines.append(f"{title}:")
            for workload, curve in curves.items():
                pts = " ".join(f"{int(x)}:{y:.3f}" for x, y in curve)
                lines.append(f"  {workload:<10} {pts}{unit}")
    if surface["slices"]:
        lines.append("")
        lines.append("category slices:")
        for category, entry in surface["slices"].items():
            gain = _fmt(entry.get("mean_best_gain"), pct=True)
            lines.append(
                f"  {category:<10} gain={gain:>7}  "
                f"({', '.join(entry['workloads'])})"
            )
    return "\n".join(lines)


def _fmt(value, pct: bool = False) -> str:
    if value is None:
        return "-"
    if pct:
        return f"{value * 100:+.2f}%"
    return f"{value:.3f}"


def _describe(best: dict) -> str:
    spec = best["pass_spec"] or "off"
    return (
        f"spec={spec} frame={best['frame_max_uops']} "
        f"promo={best['promotion_threshold']}"
    )
