"""Characterization report: golden checks on the gzip workload.

gzip is the canonical seed workload (loop-heavy, frame-friendly), so its
report exercises every section: reuse rows, loop structure, branch bias,
and the latency table cross-check against the paper's Table 2 values.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.experiment import CONFIGS
from repro.scenarios.characterize import (
    BIAS_BUCKETS,
    PAPER_LATENCY,
    characterize,
    format_characterization,
    uop_latency_table,
)
from repro.timing.config import ProcessorConfig
from repro.trace.stream import DynamicTrace


@pytest.fixture(scope="module")
def gzip_report(matrix):
    trace = matrix.trace("gzip")
    return trace, characterize(trace, CONFIGS["RPO"], workload_name="gzip")


def test_headline_counters_match_trace(gzip_report):
    trace, report = gzip_report
    stats = trace.stats()
    assert report.workload == "gzip"
    assert report.config_name == "RPO"
    assert report.records == len(trace)
    assert report.loads == stats.loads
    assert report.stores == stats.stores
    assert 0.0 <= report.taken_ratio <= 1.0
    assert 0.0 <= report.frame_coverage <= 1.0
    assert report.frames > 0


def test_reuse_table_is_consistent(gzip_report):
    _, report = gzip_report
    assert report.reuse_by_type  # gzip builds frames, so rows exist
    for row in report.reuse_by_type:
        assert 0 <= row.kept_uops <= row.raw_uops
        assert row.removed == row.raw_uops - row.kept_uops
    total_raw = sum(row.raw_uops for row in report.reuse_by_type)
    total_kept = sum(row.kept_uops for row in report.reuse_by_type)
    assert total_kept < total_raw  # the optimizer removes something
    assert report.dynamic_uop_reduction > 0.0


def test_loop_structure_accounts_for_every_record(gzip_report):
    trace, report = gzip_report
    assert report.loops  # gzip is loop-driven
    assert sum(report.depth_histogram.values()) == len(trace)
    assert any(row.max_depth >= 1 for row in report.loops)
    for row in report.loops:
        assert row.iterations >= 1


def test_bias_histogram_covers_static_branches(gzip_report):
    trace, report = gzip_report
    assert len(report.bias_histogram) == BIAS_BUCKETS
    static_branches = {
        r.pc for r in trace if r.is_conditional_branch
    }
    assert sum(report.bias_histogram) == len(static_branches)


def test_latency_table_matches_reference_under_default_config(gzip_report):
    _, report = gzip_report
    assert report.uop_table
    assert all(row.matches_reference for row in report.uop_table)
    by_op = {row.op: row for row in report.uop_table}
    assert by_op["mul"].latency == str(PAPER_LATENCY["mul"])
    assert by_op["divq"].latency == str(PAPER_LATENCY["div"])


def test_latency_table_flags_config_departures():
    rows = uop_latency_table(ProcessorConfig(mul_latency=7))
    mul = next(row for row in rows if row.op == "mul")
    assert not mul.matches_reference  # departure flagged, not hidden


def test_report_serializes_to_json(gzip_report):
    _, report = gzip_report
    payload = json.loads(json.dumps(report.to_json(), sort_keys=True))
    assert payload["workload"] == "gzip"
    assert len(payload["uop_table"]) == len(report.uop_table)
    assert all(row["ok"] for row in payload["uop_table"])


def test_format_renders_every_section(gzip_report):
    _, report = gzip_report
    text = format_characterization(report)
    for heading in (
        "reuse by instruction type",
        "loop structure",
        "branch bias histogram",
        "uop latency/throughput",
    ):
        assert heading in text


def test_characterize_requires_replay_frontend(gzip_report):
    trace, _ = gzip_report
    with pytest.raises(ValueError, match="replay"):
        characterize(trace, CONFIGS["IC"], workload_name="gzip")


def test_empty_trace_characterizes_without_division_errors():
    report = characterize(
        DynamicTrace([], name="empty"), CONFIGS["RPO"], workload_name="empty"
    )
    assert report.records == 0
    assert report.frame_coverage == 0.0
