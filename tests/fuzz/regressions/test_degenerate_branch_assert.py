"""Regression: degenerate-branch assertion conversion (found by fuzzing).

Campaign seed 1 / generator seed 54 produced a loop body ending in
``cmp ecx, 2; ja <next>`` — a conditional branch whose taken target *is*
its fall-through (the generator's forward skip clamped to the body end).
The frame constructor converted it to ``assert a`` like any other biased
mid-frame branch.  But both directions of such a branch retire the same
successor, so path matching can never reject an instance whose direction
flipped — and on the iteration where ECX reached 2 the assertion fired
on a committing, path-matching, exit-matching instance in every
optimizer variant (including all passes disabled).

The fix drops the control uop instead: a branch that cannot change the
path needs no assertion, and asserting it can only cause spurious
rollbacks.  See ``repro.replay.frame.degenerate_branch``.
"""

from repro.fuzz.generator import FuzzProgram, generate_program, render_program
from repro.fuzz.oracle import (
    CONSTRUCTOR,
    MAX_INSTRUCTIONS,
    _construct_frames,
    run_differential,
)
from repro.trace.injector import MicroOpInjector
from repro.uops.uop import UopOp
from repro.x86.emulator import Emulator
from repro.x86.instructions import Cond

#: Minimized by hand from generator seed 54 (the shrinker's target
#: shape): one load to give the frame body real work, then the
#: degenerate branch.  ``ja`` is taken while ECX > 2 and falls through
#: on the last two iterations — the direction flips mid-campaign.
MINIMIZED = FuzzProgram(
    seed=0,
    iterations=12,
    alias_delta=0,
    reg_init={"eax": 0, "ebx": 0, "edx": 0, "ebp": 0},
    data=[0] * 8,
    ops=[
        {"kind": "load", "dst": "eax", "base": "esi", "disp": 0},
        {
            "kind": "branch",
            "test": {"op": "cmp", "left": "ecx", "right": {"imm": 2}},
            "cond": "a",
            "skip": 1,
        },
    ],
)


def _frames(genome):
    emulator = Emulator(render_program(genome))
    records = emulator.run(max_instructions=MAX_INSTRUCTIONS)
    assert emulator.halted
    injected = MicroOpInjector().inject_trace(records)
    return injected, _construct_frames(injected, CONSTRUCTOR)


def test_degenerate_branch_direction_actually_flips():
    """Guard the repro's premise: the branch is taken early and
    not-taken late, all at one PC, with one successor."""
    injected, _ = _frames(MINIMIZED)
    outcomes = {}
    for record in injected.records:
        if record.instruction.is_conditional and record.branch_taken is not None:
            outcomes.setdefault(record.pc, set()).add(record.branch_taken)
    # At least one conditional site saw both directions.
    assert any(len(directions) == 2 for directions in outcomes.values())


def test_degenerate_branch_is_not_converted_to_an_assertion():
    _, frames = _frames(MINIMIZED)
    assert frames, "repro must still construct frames"
    kept_assert_conds = {
        uop.cond
        for frame in frames
        for uop in frame.dyn_uops
        if uop.op is UopOp.ASSERT
    }
    # The backedge (dec ecx; jnz) legitimately converts to `assert nz`;
    # the degenerate `ja` must not appear as `assert a` (or `assert be`).
    assert Cond.A not in kept_assert_conds
    assert Cond.BE not in kept_assert_conds


def test_minimized_repro_is_divergence_free():
    report = run_differential(MINIMIZED)
    assert report.ok, report.divergences
    assert report.instances_committed > 0


def test_original_seed_54_is_divergence_free():
    report = run_differential(generate_program(54))
    assert report.ok, report.divergences
