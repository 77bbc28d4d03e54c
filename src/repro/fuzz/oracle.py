"""The differential oracle: optimized frames vs the unoptimized emulation.

One generated program flows through the full stack, checked under
every variant of the optimizer configuration:

    emulate → trace → inject → frame construction → remap
            → (per variant) copy → optimize → check

and is checked two complementary ways:

* **verifier leg** — the first path-matching instance of every frame is
  handed to :class:`~repro.verify.verifier.StateVerifier`, which
  enforces the paper's three §5.1.3 rules (loads covered by the initial
  memory map, final memory map equal, register/flag state equal at the
  frame boundary) against the true architectural state;
* **replay leg** — the whole trace is re-executed by an
  :class:`~repro.verify.state.ArchState`:
  wherever a frame path-matches (same commit rule the sequencer uses —
  path match and no unsafe-store conflict) the optimized
  frame executes against the replayed live state via
  :func:`~repro.verify.frame_exec.execute_frame`; everywhere else the
  trace record applies directly.  The final registers and flags must
  equal the emulator's, and the stored bytes the trace's.

Assertion fires are judged against the true trace.  Path match covers
every *internal* transfer (a deviating internal branch changes the next
PC inside ``x86_pcs``), but not the frame's **final** branch — its
divergent target lies outside the frame.  So a fire on a path-matching
instance is *legitimate recovery* when the true trace continues
somewhere other than ``frame.end_next_pc`` (e.g. the loop's final
iteration falls out of a backedge frame), and a divergence only when
the true trace did continue at ``end_next_pc`` — then every converted
branch went the frame's way and a correct frame cannot fire.

The variant-independent work runs once per program: the program is
emulated, injected and frame-constructed once, the true state is walked
along the trace once (:func:`walk_trace`), and each constructed frame
is remapped into its optimization buffer once.  Each
optimizer-pass subset ("variant") then optimizes its own copy of every
remapped buffer, so a divergence report names the narrowest pass
combination that still miscompiles.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

from repro.optimizer.buffer import OptimizationBuffer
from repro.optimizer.pipeline import FrameOptimizer, OptimizerConfig
from repro.replay.constructor import ConstructorConfig, closed_regions
from repro.replay.frame import Frame
from repro.replay.sequencer import unsafe_store_conflict
from repro.trace.injector import InjectedTrace, MicroOpInjector
from repro.trace.record import TraceRecord
from repro.verify.frame_exec import FrameExecutionError, execute_frame
from repro.verify.state import ArchState, initial_image
from repro.verify.verifier import StateVerifier, VerificationError
from repro.x86.emulator import Emulator
from repro.x86.registers import Reg

from repro.fuzz.generator import FuzzProgram, render_program

#: Optimizer-pass subsets every program is checked under: the full
#: pipeline, each single-pass ablation (Figure 10's legend), speculation
#: off, both restricted scopes, and DCE alone.
VARIANTS = (
    "full",
    "no-asst",
    "no-cp",
    "no-cse",
    "no-nop",
    "no-ra",
    "no-sf",
    "no-spec",
    "block",
    "inter",
    "dce-only",
)

_ABLATIONS = ("asst", "cp", "cse", "nop", "ra", "sf")

#: Emulation budget for one generated program (every generated program
#: halts well inside it).
MAX_INSTRUCTIONS = 50_000

#: Constructor knobs tuned for short fuzz loops: promote branches fast
#: and close frames early so a 6-iteration loop already builds and
#: dispatches frames.
CONSTRUCTOR = ConstructorConfig(
    min_uops=8, max_uops=96, promotion_threshold=4, backedge_close_uops=48
)


def variant_config(name: str) -> OptimizerConfig:
    """Optimizer configuration for a named pass subset."""
    base = OptimizerConfig()
    if name == "full":
        return base
    if name == "no-spec":
        return replace(base, speculation=False)
    if name in ("block", "inter"):
        return replace(base, scope=name)
    if name == "dce-only":
        for key in _ABLATIONS:
            base = base.disabled(key)
        return base
    if name.startswith("no-") and name[3:] in _ABLATIONS:
        return base.disabled(name[3:])
    raise ValueError(f"unknown variant {name!r}")


@dataclass
class Divergence:
    """One observed optimizer/frame/emulator disagreement."""

    kind: str  # verifier | assert-fired | frame-exec-error | optimizer-crash | final-state
    variant: str
    detail: str
    frame_pc: int | None = None
    instance_index: int | None = None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "variant": self.variant,
            "detail": self.detail,
            "frame_pc": self.frame_pc,
            "instance_index": self.instance_index,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Divergence":
        return cls(
            kind=payload["kind"],
            variant=payload["variant"],
            detail=payload["detail"],
            frame_pc=payload.get("frame_pc"),
            instance_index=payload.get("instance_index"),
        )


@dataclass
class ProgramReport:
    """Outcome of running one program through the oracle."""

    seed: int
    trace_length: int = 0
    frames_constructed: int = 0
    instances_committed: int = 0
    instances_verified: int = 0
    unsafe_skips: int = 0
    legit_fires: int = 0  # exit-direction fires (recovery, not divergence)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def _construct_frames(
    injected: InjectedTrace, config: ConstructorConfig
) -> list[Frame]:
    """All distinct frames the constructor emits over the retired stream."""
    frames: list[Frame] = []
    seen: set[tuple] = set()
    for _, start, stop, end_next_pc in closed_regions(injected, config):
        frame = Frame.from_region(injected, start, stop, end_next_pc)
        if frame.path_key not in seen:
            seen.add(frame.path_key)
            frames.append(frame)
    return frames


def _clone_frame(frame: Frame, buffer: OptimizationBuffer) -> Frame:
    """A shallow copy of ``frame`` (sharing its path and immutable-in-
    practice body) holding its own unoptimized ``buffer``: clones given
    separate copies of one remap never interfere when optimized under
    different configs."""
    clone = copy.copy(frame)
    clone.buffer = buffer
    return clone


def _path_matches(frame: Frame, injected: InjectedTrace, base: int) -> bool:
    """Does the trace from ``base`` retire exactly the frame's x86 path?"""
    return injected.pcs[base : base + frame.x86_count] == frame.x86_pcs


def walk_trace(
    records: list[TraceRecord],
) -> tuple[list[tuple[tuple[int, ...], int]], ArchState]:
    """Walk the true architectural state along a trace, from entry.

    Returns the registers and flags before each record, and the state
    after the last one: its overlay holds every byte the trace stored.
    """
    state = ArchState()
    before = []
    for record in records:
        before.append((tuple(state.regs), state.flags))
        state.apply_record(record)
    return before, state


def run_differential(genome: FuzzProgram, metrics=None) -> ProgramReport:
    """Run one program genome through every variant; report divergences."""
    report = ProgramReport(seed=genome.seed)

    program = render_program(genome)
    emulator = Emulator(program)
    records = emulator.run(max_instructions=MAX_INSTRUCTIONS)
    if not emulator.halted:
        # A genome the generator should never produce (shrinker edits
        # can): treat as unrunnable, not as a divergence.
        raise ValueError(f"program (seed {genome.seed}) did not halt")
    report.trace_length = len(records)
    before, expected = walk_trace(records)
    # The emulator's own final registers and flags, so a record that
    # misses a register write still shows as a final-state divergence.
    expected.regs = list(emulator.regs)
    expected.flags = emulator.flags_word()
    image = initial_image(program)

    injected = MicroOpInjector().inject_trace(records)

    proto_frames = _construct_frames(injected, CONSTRUCTOR)
    report.frames_constructed = len(proto_frames)
    # Remapping does not depend on the variant: remap each frame once
    # here and let every variant optimize its own copy.  A remap that
    # raises is reported under every variant, as an optimizer crash.
    remaps: list[OptimizationBuffer | Exception] = []
    for proto in proto_frames:
        try:
            remaps.append(proto.build_buffer())
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            remaps.append(exc)
    if metrics is not None:
        metrics.counter("fuzz.programs").inc()
        metrics.counter("fuzz.trace_records").inc(len(records))
        metrics.counter("fuzz.frames_constructed").inc(len(proto_frames))

    for variant in VARIANTS:
        _run_variant(
            variant,
            proto_frames,
            remaps,
            injected,
            image,
            before,
            expected,
            report,
            metrics,
        )
    if metrics is not None and report.divergences:
        metrics.counter("fuzz.divergences").inc(len(report.divergences))
        for divergence in report.divergences:
            metrics.counter(f"fuzz.divergence.{divergence.kind}").inc()
    return report


def _run_variant(
    variant: str,
    proto_frames: list[Frame],
    remaps: list[OptimizationBuffer | Exception],
    injected: InjectedTrace,
    image: dict[int, int],
    before: list[tuple[tuple[int, ...], int]],
    expected: ArchState,
    report: ProgramReport,
    metrics,
) -> None:
    optimizer = FrameOptimizer(variant_config(variant), metrics=metrics)
    frames: list[Frame] = []
    for proto, remap in zip(proto_frames, remaps):
        try:
            if isinstance(remap, Exception):
                raise remap
            frame = _clone_frame(proto, remap.copy())
            frame.opt_result = optimizer.optimize(frame.buffer)
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            report.divergences.append(
                Divergence(
                    kind="optimizer-crash",
                    variant=variant,
                    detail=f"{type(exc).__name__}: {exc}",
                    frame_pc=proto.start_pc,
                )
            )
            continue
        frames.append(frame)

    # Each frame with its kept unsafe stores, collected once.
    by_pc: dict[int, list[tuple[Frame, tuple]]] = {}
    for frame in frames:
        unsafe_stores = tuple(
            u for u in frame.buffer.uops if u.unsafe and u.valid and u.is_store
        )
        by_pc.setdefault(frame.start_pc, []).append((frame, unsafe_stores))

    verifier = StateVerifier()
    machine = ArchState(image=image)
    verified_paths: set[tuple] = set()
    committed = 0

    records = injected.records
    index = 0
    total = len(injected)
    while index < total:
        record = records[index]
        dispatched = None
        for frame, unsafe_stores in by_pc.get(record.pc, ()):
            if not _path_matches(frame, injected, index):
                continue
            if unsafe_stores and unsafe_store_conflict(
                frame, injected, index, unsafe_stores
            ):
                report.unsafe_skips += 1
                continue
            dispatched = frame
            break
        if dispatched is None:
            machine.apply_record(record)
            index += 1
            continue

        frame = dispatched
        region = records[index : index + frame.x86_count]
        # Where does the true trace go after this region?  The exit
        # branch is the one transfer path matching cannot check; an
        # instance that leaves the frame's path here is *expected* to
        # fire (recovery), so neither leg may call that a divergence.
        next_index = index + frame.x86_count
        actual_next_pc = (
            injected.pcs[next_index] if next_index < total else None
        )
        exit_matches = actual_next_pc == frame.end_next_pc
        # Verifier leg: first committing instance of each path (deferred
        # past exit-deviating instances, where a fire is legitimate).
        if exit_matches and frame.path_key not in verified_paths:
            verified_paths.add(frame.path_key)
            try:
                verifier.verify_frame_instance(
                    frame, region, ArchState(*before[index])
                )
                report.instances_verified += 1
            except VerificationError as exc:
                report.divergences.append(
                    Divergence(
                        kind="verifier",
                        variant=variant,
                        detail=str(exc),
                        frame_pc=frame.start_pc,
                        instance_index=index,
                    )
                )
        # Replay leg: execute the frame against the replayed live state.
        try:
            outcome = execute_frame(
                frame.buffer,
                machine.live_in_regs(),
                machine.live_in_flags(),
                machine.read_byte,
            )
        except FrameExecutionError as exc:
            report.divergences.append(
                Divergence(
                    kind="frame-exec-error",
                    variant=variant,
                    detail=str(exc),
                    frame_pc=frame.start_pc,
                    instance_index=index,
                )
            )
            outcome = None
        if outcome is not None and outcome.fired:
            if exit_matches:
                report.divergences.append(
                    Divergence(
                        kind="assert-fired",
                        variant=variant,
                        detail=(
                            f"assertion fired at slot {outcome.firing_slot} "
                            f"but the true trace continued at "
                            f"{frame.end_next_pc:#x} (the frame's own exit)"
                        ),
                        frame_pc=frame.start_pc,
                        instance_index=index,
                    )
                )
            else:
                report.legit_fires += 1
            if metrics is not None:
                metrics.counter("fuzz.asserts_fired").inc()
            outcome = None
        if outcome is None:
            # Divergent instance: fall back to the true records so later
            # instances are still checked from accurate state.
            for rec in region:
                machine.apply_record(rec)
        else:
            machine.apply_outcome(outcome)
            report.instances_committed += 1
            committed += 1
        index += frame.x86_count

    if metrics is not None:
        metrics.counter(f"fuzz.variant.{variant}.instances").inc(committed)

    # Final architectural state: registers, flags, and every stored byte.
    expected_bytes = expected.overlay
    for i in range(8):
        if machine.regs[i] != expected.regs[i]:
            report.divergences.append(
                Divergence(
                    kind="final-state",
                    variant=variant,
                    detail=(
                        f"register {Reg(i).name} mismatch: "
                        f"machine={machine.regs[i]:#x} "
                        f"emulator={expected.regs[i]:#x}"
                    ),
                )
            )
    if machine.flags != expected.flags:
        report.divergences.append(
            Divergence(
                kind="final-state",
                variant=variant,
                detail=(
                    f"flags mismatch: machine={machine.flags:#x} "
                    f"emulator={expected.flags:#x}"
                ),
            )
        )
    if machine.overlay != expected_bytes:
        differing = {
            address: (machine.overlay.get(address), byte)
            for address, byte in expected_bytes.items()
            if machine.overlay.get(address) != byte
        }
        extra = {
            address: byte
            for address, byte in machine.overlay.items()
            if address not in expected_bytes
        }
        sample = dict(list(differing.items())[:4])
        report.divergences.append(
            Divergence(
                kind="final-state",
                variant=variant,
                detail=(
                    f"memory mismatch: {len(differing)} differing, "
                    f"{len(extra)} extra bytes, e.g. {sample}"
                ),
            )
        )
