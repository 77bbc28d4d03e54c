"""Differential-oracle behavior on known-clean and synthetic inputs."""

import pytest

from repro.fuzz.campaign import derive_program_seed
from repro.fuzz.generator import GeneratorConfig, generate_program, render_program
from repro.fuzz.oracle import (
    MAX_INSTRUCTIONS,
    VARIANTS,
    Divergence,
    run_differential,
    variant_config,
    walk_trace,
)
from repro.metrics import MetricsRegistry
from repro.x86 import Emulator


def test_clean_seeds_produce_no_divergences():
    for seed in (1, 2, 3, 54, 97):  # 54 was the degenerate-branch repro
        report = run_differential(generate_program(seed))
        assert report.ok, (seed, report.divergences)


def test_oracle_exercises_the_whole_stack():
    """A fuzz campaign that never builds or commits frames tests
    nothing; the default constructor tuning must produce both."""
    frames = committed = verified = 0
    for seed in range(1, 21):
        report = run_differential(generate_program(seed))
        frames += report.frames_constructed
        committed += report.instances_committed
        verified += report.instances_verified
    assert frames > 10
    assert committed > 100
    assert verified > 10


def test_walk_trace_keeps_the_true_state_before_each_record():
    """The one true-state walk the verifier legs read: before record i
    it holds an emulator's registers and flags after i steps, and its
    final overlay holds every byte the trace stored."""
    for index in range(20):
        genome = generate_program(derive_program_seed(1, index), GeneratorConfig())
        program = render_program(genome)
        records = Emulator(program).run(MAX_INSTRUCTIONS)
        before, after = walk_trace(records)
        assert len(before) == len(records)
        stepper = Emulator(program)
        for i, state in enumerate(before):
            expected = (tuple(stepper.regs), stepper.flags_word())
            assert state == expected, (index, i)
            stepper.step()
        assert after.regs == list(stepper.regs)
        assert after.flags == stepper.flags_word()
        stored: dict[int, int] = {}
        for record in records:
            for op in record.stores:
                for k in range(op.size):
                    stored[(op.address + k) & 0xFFFFFFFF] = (op.data >> 8 * k) & 0xFF
        assert stored, index
        assert after.overlay == stored, index
        for address, byte in stored.items():
            assert stepper.memory.read(address, 1) == byte, (index, address)


def test_variant_configs_are_distinct():
    fingerprints = set()
    for name in VARIANTS:
        config = variant_config(name)
        fingerprints.add(str(config))
    assert len(fingerprints) == len(VARIANTS)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="unknown variant"):
        variant_config("no-such-pass")


def test_metrics_wired_through():
    registry = MetricsRegistry()
    run_differential(generate_program(5), metrics=registry)
    counters = registry.counters()
    assert counters["fuzz.programs"] == 1
    assert counters["fuzz.trace_records"] > 0
    assert counters["fuzz.frames_constructed"] > 0
    assert any(name.startswith("fuzz.variant.") for name in counters)


def test_divergence_json_roundtrip():
    divergence = Divergence(
        kind="final-state",
        variant="no-cse",
        detail="register EAX mismatch",
        frame_pc=0x401000,
        instance_index=42,
    )
    assert Divergence.from_json(divergence.to_json()) == divergence


def test_report_deterministic_for_same_genome():
    genome = generate_program(17)
    a = run_differential(genome)
    b = run_differential(genome)
    assert (
        a.trace_length,
        a.frames_constructed,
        a.instances_committed,
        a.instances_verified,
        a.legit_fires,
    ) == (
        b.trace_length,
        b.frames_constructed,
        b.instances_committed,
        b.instances_verified,
        b.legit_fires,
    )


def test_call_genomes_reach_nop_pass_without_divergence():
    """``call_weight`` is the only generator path into call/ret frames and
    the ``nop`` pass; the oracle must agree on all of them."""
    registry = MetricsRegistry()
    config = GeneratorConfig(call_weight=0.25)
    for seed in range(20):
        report = run_differential(generate_program(seed, config), metrics=registry)
        assert report.ok, (seed, report.divergences)
    assert registry.counters().get("optimizer.pass.nop.changes", 0) > 0
