"""Atomic frames (paper §2).

A frame is a single-entry, single-exit, atomic region: all control
dependencies inside it have been converted to assertions, so either every
uop commits or none does.  The frame records the x86 path it embodies
(for sequencer path matching), its uops in frame-ified form, and — after
optimization — the optimization buffer holding the final micro-operations
and live-out bindings.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.trace.injector import InjectedTrace
from repro.uops.uop import Uop, UopOp
from repro.x86.instructions import Cond
from repro.optimizer.buffer import OptimizationBuffer
from repro.optimizer.optuop import OptUop
from repro.optimizer.pipeline import OptimizationResult


class FrameBody(NamedTuple):
    """A frame's uops in frame form, with their per-uop side tables."""

    dyn_uops: list[Uop]
    x86_indices: list[int]
    mem_keys: list[tuple[int, int] | None]
    block_starts: list[int]
    raw_load_count: int


class Frame:
    """One atomic frame.

    A frame built from a retired region (:meth:`from_region`) holds only
    its path and the region (its stream and index range) until its body
    is first read; the body is then frame-ified and the region dropped.
    The optimization queue rejects most constructed frames on their path
    alone (already cached, already in flight, pipeline full), so only
    the frames it keeps pay for the per-uop copy.  A frame may also be
    given its body directly.
    """

    def __init__(
        self,
        start_pc: int,
        x86_pcs: list[int],
        end_next_pc: int,
        dyn_uops: list[Uop] | None = None,
        x86_indices: list[int] | None = None,
        mem_keys: list[tuple[int, int] | None] | None = None,
        block_starts: list[int] | None = None,
        region: tuple[InjectedTrace, int, int] | None = None,
    ) -> None:
        self.start_pc = start_pc
        self.x86_pcs = x86_pcs
        self.end_next_pc = end_next_pc
        #: identity of the frame: entry point plus embodied path.
        self.path_key = (start_pc, tuple(x86_pcs))
        self._region = region
        self._body: FrameBody | None = None
        if region is None:
            dyn_uops = dyn_uops or []
            self._body = FrameBody(
                dyn_uops,
                x86_indices or [],
                mem_keys or [],
                block_starts or [0],
                sum(1 for u in dyn_uops if u.is_load),
            )
        self.buffer: OptimizationBuffer | None = None
        self.opt_result: OptimizationResult | None = None
        self.commits = 0  # dynamic instances that completed
        self.fires = 0  # dynamic instances that aborted
        self.cooldown = 0  # dispatch opportunities to skip after a fire
        #: cached :class:`repro.timing.schedule.FrameSchedule`; valid once the
        #: buffer is final (post-optimization) and for the buffer's lifetime.
        self.sched_template = None
        #: cached predictor-training events of the internal transfers, with
        #: the ones whose outcome varies per instance; built by
        #: ``RePLaySequencer._train_events`` on the first commit.
        self.train_events = None

    @classmethod
    def from_region(
        cls, injected: InjectedTrace, start: int, stop: int, end_next_pc: int
    ) -> Frame:
        """A frame over the retired region ``injected[start:stop]``,
        frame-ified on first read."""
        x86_pcs = injected.pcs[start:stop]
        return cls(
            start_pc=x86_pcs[0],
            x86_pcs=x86_pcs,
            end_next_pc=end_next_pc,
            region=(injected, start, stop),
        )

    @property
    def body(self) -> FrameBody:
        """The frame-ified uops, built from the region on first read."""
        body = self._body
        if body is None:
            body = self._body = _frameify(*self._region)
            self._region = None
        return body

    @property
    def dyn_uops(self) -> list[Uop]:
        return self.body.dyn_uops

    @property
    def x86_indices(self) -> list[int]:
        return self.body.x86_indices

    @property
    def mem_keys(self) -> list[tuple[int, int] | None]:
        return self.body.mem_keys

    @property
    def block_starts(self) -> list[int]:
        return self.body.block_starts

    @property
    def raw_load_count(self) -> int:
        """Loads among the frame-ified uops (before optimization)."""
        return self.body.raw_load_count

    @property
    def proven(self) -> bool:
        """Has this frame earned protection from replacement?"""
        return self.commits >= 4 and self.fires * 4 <= self.commits

    @property
    def x86_count(self) -> int:
        return len(self.x86_pcs)

    @property
    def raw_uop_count(self) -> int:
        return len(self.dyn_uops)

    @property
    def uop_count(self) -> int:
        """Micro-operations fetched when this frame is dispatched."""
        if self.sched_template is not None:
            return len(self.sched_template.kept)
        if self.buffer is not None:
            return self.buffer.valid_count()
        return len(self.dyn_uops)

    @property
    def load_count(self) -> int:
        if self.buffer is not None:
            return self.buffer.load_count()
        return self.raw_load_count

    def kept_uops(self) -> list[OptUop]:
        """Valid optimized uops in final (position) order."""
        if self.buffer is None:
            raise ValueError("frame has not been remapped/optimized")
        return [u for u in self.buffer.uops if u.valid]

    def build_buffer(self) -> OptimizationBuffer:
        """Remap the frame into the optimization buffer (idempotent)."""
        if self.buffer is None:
            body = self.body
            self.buffer = OptimizationBuffer(
                body.dyn_uops,
                body.x86_indices,
                body.mem_keys,
                block_starts=body.block_starts,
            )
        return self.buffer


def _frameify(injected: InjectedTrace, start: int, stop: int) -> FrameBody:
    """Convert the region ``injected[start:stop]`` into frame form:
    mid-frame control becomes assertions (paper §2); the final control
    transfer stays the exit."""
    dyn_uops: list[Uop] = []
    x86_indices: list[int] = []
    mem_keys: list[tuple[int, int] | None] = []
    block_starts: list[int] = [0]
    raw_loads = 0
    records = injected.records
    uops, addresses, offsets = injected.uops, injected.addresses, injected.offsets
    last_index = stop - start - 1

    for x86_index in range(stop - start):
        position = start + x86_index
        record = records[position]
        if x86_index and records[position - 1].instruction.is_branch:
            block_starts.append(x86_index)
        is_exit_instr = x86_index == last_index
        mem_index = 0
        for k in range(offsets[position], offsets[position + 1]):
            uop, address = uops[k], addresses[k]
            key: tuple[int, int] | None = None
            if uop.is_mem:
                key = (x86_index, mem_index)
                mem_index += 1
                raw_loads += uop.op is UopOp.LOAD
            if uop.is_control and not is_exit_instr:
                if degenerate_branch(uop, record):
                    # Taken target == fall-through: the direction
                    # cannot change the frame's path, so an assertion
                    # here could only fire spuriously (a rollback
                    # with no architectural cause).  Drop the uop.
                    continue
                converted = _convert_control(uop, record)
            else:
                # The one place a dynamic uop is copied: the shared
                # static uop gets this instance's address.
                converted = uop.copy()
                if address is not None:
                    converted.mem_address = address
            dyn_uops.append(converted)
            x86_indices.append(x86_index)
            mem_keys.append(key)

    return FrameBody(dyn_uops, x86_indices, mem_keys, block_starts, raw_loads)


def degenerate_branch(uop: Uop, record) -> bool:
    """A conditional branch to its own fall-through address.

    Both directions retire the same successor, so path matching can
    never observe the direction and no assertion is needed;
    converting one was found (by differential fuzzing) to fire on
    path-matching instances whenever the condition flips.
    """
    return (
        uop.op is UopOp.BR
        and uop.target is not None
        and uop.target == record.pc + record.instruction.length
    )


def _convert_control(uop: Uop, record) -> Uop:
    """Mid-frame control conversion: BR -> ASSERT, JMPI -> value assert.

    The direction and indirect target come from this instance's
    record; the static uop itself is never modified.
    """
    if uop.op is UopOp.BR:
        assert uop.cond is not None and record.branch_taken is not None
        cond = uop.cond if record.branch_taken else uop.cond.inverse()
        return uop.copy(op=UopOp.ASSERT, cond=cond, target=None)
    if uop.op is UopOp.JMPI:
        return uop.copy(
            op=UopOp.ASSERT_CMP,
            cond=Cond.Z,
            cmp_kind=UopOp.SUB,
            imm=record.next_pc,
            writes_flags=False,
        )
    return uop.copy()  # direct JMP: left for the NOP-removal pass
