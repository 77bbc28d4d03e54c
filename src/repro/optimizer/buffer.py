"""The optimization buffer (paper Figure 3).

Holds a frame in remapped form: slot *m* defines physical register *m*, so
retrieving the parent that produced an operand is an index lookup, and a
hardware-style Dependency List maps each slot to its children.  The buffer
also tracks the frame's live-out bindings — which operand supplies each
architectural register (and the flags) at frame exit — both for the frame
as a whole and at every basic-block boundary (needed for the intra-block
optimization scope of Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.uops.uop import ARCH_REGS, Uop, UReg
from repro.optimizer.optuop import (
    MEM_OPS, DefRef, LiveIn, Operand, OPERAND_FIELDS, OptUop, from_dyn_uop,
)


class BufferError(Exception):
    """Raised on malformed frames (e.g. use of an undefined temporary)."""


@dataclass
class BlockBoundary:
    """Liveness snapshot at the end of one basic block within the frame."""

    end_x86_index: int  # first x86 index of the *next* block
    live_out: dict[UReg, Operand] = field(default_factory=dict)
    flags_slot: int | None = None
    flags_written: bool = False


class OptimizationBuffer:
    """A frame rendered into single-assignment (remapped) form.

    ``uops[slot]`` defines physical register ``slot``.  ``value_children``
    and ``flags_children`` are the Dependency List structure; passes must
    mutate operands through :meth:`rewrite_operand` /
    :meth:`replace_all_uses` so the lists stay consistent.
    """

    def __init__(
        self,
        dyn_uops: list[Uop],
        x86_indices: list[int],
        mem_keys: list[tuple[int, int] | None],
        block_starts: list[int] | None = None,
    ) -> None:
        if not (len(dyn_uops) == len(x86_indices) == len(mem_keys)):
            raise BufferError("uops/x86_indices/mem_keys length mismatch")
        self.uops: list[OptUop] = []
        self.value_children: list[set[int]] = []
        self.flags_children: list[set[int]] = []
        self.live_out: dict[UReg, Operand] = {}
        self.flags_live_out_slot: int | None = None
        self.flags_live_out_written: bool = False
        self.block_boundaries: list[BlockBoundary] = []
        self._block_starts = sorted(set(block_starts or [0]))
        self._remap(dyn_uops, x86_indices, mem_keys)

    # ------------------------------------------------------------- build

    def _remap(
        self,
        dyn_uops: list[Uop],
        x86_indices: list[int],
        mem_keys: list[tuple[int, int] | None],
    ) -> None:
        """The Remapper: bind operands, assign dst = slot index."""
        reg_def: dict[UReg, Operand] = {reg: LiveIn(reg) for reg in ARCH_REGS}
        flags_def: int | None = None
        flags_written = False
        block_iter = iter(self._block_starts[1:] + [None])
        next_block_start = next(block_iter)

        def lookup(reg: UReg | None) -> Operand | None:
            if reg is None:
                return None
            operand = reg_def.get(reg)
            if operand is None:
                raise BufferError(f"use of undefined temporary {reg.name}")
            return operand

        for slot, (uop, x86_index, mem_key) in enumerate(
            zip(dyn_uops, x86_indices, mem_keys)
        ):
            while next_block_start is not None and x86_index >= next_block_start:
                self.block_boundaries.append(
                    BlockBoundary(
                        end_x86_index=next_block_start,
                        live_out=dict(reg_def),
                        flags_slot=flags_def,
                        flags_written=flags_written,
                    )
                )
                next_block_start = next(block_iter)
            opt = from_dyn_uop(uop, slot)
            opt.x86_index = x86_index
            opt.mem_key = mem_key
            opt.position = slot
            opt.src_a = lookup(uop.src_a)
            opt.src_b = lookup(uop.src_b)
            opt.src_data = lookup(uop.src_data)
            if opt.reads_flags:
                opt.flags_src = flags_def
            if uop.dst is not None:
                opt.arch_dst = uop.dst if uop.dst.is_architectural else None
                reg_def[uop.dst] = DefRef(slot)
            if uop.writes_flags:
                flags_def = slot
                flags_written = True
            self.uops.append(opt)
            self.value_children.append(set())
            self.flags_children.append(set())

        # Final (frame-level) live-outs: architectural registers only.
        self.live_out = {
            reg: operand
            for reg, operand in reg_def.items()
            if reg.is_architectural and not isinstance(operand, LiveIn)
        }
        self.flags_live_out_slot = flags_def
        self.flags_live_out_written = flags_written
        # Trailing boundary covering the last block.
        self.block_boundaries.append(
            BlockBoundary(
                end_x86_index=1 + (x86_indices[-1] if x86_indices else 0),
                live_out={
                    reg: op
                    for reg, op in reg_def.items()
                    if reg.is_architectural and not isinstance(op, LiveIn)
                },
                flags_slot=flags_def,
                flags_written=flags_written,
            )
        )
        # Populate dependency lists.
        for slot, opt in enumerate(self.uops):
            for _, operand in opt.operands():
                if isinstance(operand, DefRef):
                    self.value_children[operand.slot].add(slot)
            if opt.reads_flags and opt.flags_src is not None:
                self.flags_children[opt.flags_src].add(slot)

    def copy(self) -> OptimizationBuffer:
        """An independent buffer in the same state.

        Remapping depends only on the frame, so one remap can be copied
        and each copy optimized under a different configuration; every
        mutable part (uops, dependency lists, live-out maps) is new.
        """
        clone = OptimizationBuffer.__new__(OptimizationBuffer)
        clone.uops = [uop.copy() for uop in self.uops]
        clone.value_children = list(map(set, self.value_children))
        clone.flags_children = list(map(set, self.flags_children))
        clone.live_out = dict(self.live_out)
        clone.flags_live_out_slot = self.flags_live_out_slot
        clone.flags_live_out_written = self.flags_live_out_written
        clone.block_boundaries = [
            BlockBoundary(
                b.end_x86_index, dict(b.live_out), b.flags_slot, b.flags_written
            )
            for b in self.block_boundaries
        ]
        clone._block_starts = self._block_starts  # never mutated
        return clone

    # ------------------------------------------------------- navigation

    def __len__(self) -> int:
        return len(self.uops)

    def mem_slots(self) -> list[int]:
        """Valid memory uops in frame order (memory order is preserved)."""
        return [u.slot for u in self.uops if u.op in MEM_OPS and u.valid]

    # ------------------------------------------------------- mutation

    def rewrite_operand(self, slot: int, fld: str, new: Operand | None) -> None:
        """Point one operand field at a new producer, fixing dependency lists."""
        uop = self.uops[slot]
        old = getattr(uop, fld)
        if old == new:
            return
        if isinstance(old, DefRef) and not self._still_references(slot, old.slot, exclude=fld):
            self.value_children[old.slot].discard(slot)
        setattr(uop, fld, new)
        if isinstance(new, DefRef):
            self.value_children[new.slot].add(slot)

    def _still_references(self, slot: int, producer: int, exclude: str) -> bool:
        uop = self.uops[slot]
        for name in OPERAND_FIELDS:
            if name == exclude:
                continue
            operand = getattr(uop, name)
            if isinstance(operand, DefRef) and operand.slot == producer:
                return True
        return False

    def replace_all_uses(self, slot: int, new: Operand) -> int:
        """Rewire every consumer of ``slot`` (and live-out bindings) to ``new``.

        Sound whenever the value of ``new`` provably equals the value slot
        produces.  Returns the number of operand rewrites performed.
        """
        count = 0
        for child in list(self.value_children[slot]):
            child_uop = self.uops[child]
            for name in OPERAND_FIELDS:
                operand = getattr(child_uop, name)
                if isinstance(operand, DefRef) and operand.slot == slot:
                    self.rewrite_operand(child, name, new)
                    count += 1
        # Live-out bindings: a class-identity test, not a DefRef built
        # and compared through the dataclass ``__eq__`` (a hot loop).
        maps = [self.live_out]
        maps.extend(b.live_out for b in self.block_boundaries)
        for live_out in maps:
            for reg, operand in live_out.items():
                if operand.__class__ is DefRef and operand.slot == slot:
                    live_out[reg] = new
                    count += 1
        return count

    def replace_flags_uses(self, slot: int, new_slot: int | None) -> int:
        """Rewire flag consumers of ``slot`` to read ``new_slot`` instead.

        Sound when the two slots provably produce identical flag words
        (e.g. CSE of identical operations on identical operands).  Also
        rebinds the frame/block flag live-out markers.
        """
        count = 0
        for child in list(self.flags_children[slot]):
            self.uops[child].flags_src = new_slot
            self.flags_children[slot].discard(child)
            if new_slot is not None:
                self.flags_children[new_slot].add(child)
            count += 1
        if self.flags_live_out_slot == slot:
            self.flags_live_out_slot = new_slot
            count += 1
        for boundary in self.block_boundaries:
            if boundary.flags_slot == slot:
                boundary.flags_slot = new_slot
                count += 1
        return count

    def invalidate(self, slot: int) -> None:
        """Remove a uop: mark invalid and detach it from its parents' lists.

        Callers must have rewired/checked children; invalidating a slot
        that still has consumers or live-out references is a logic error.
        """
        uop = self.uops[slot]
        if not uop.valid:
            return
        if self.value_children[slot]:
            raise BufferError(f"invalidating slot {slot} with live children")
        uop.valid = False
        for name in OPERAND_FIELDS:
            operand = getattr(uop, name)
            if isinstance(operand, DefRef):
                setattr(uop, name, None)
                if not self._still_references(slot, operand.slot, exclude=name):
                    self.value_children[operand.slot].discard(slot)
        if uop.flags_src is not None:
            self.flags_children[uop.flags_src].discard(slot)
            uop.flags_src = None

    # ------------------------------------------------------- liveness

    def value_protected_slots(self, scope: str = "frame") -> set[int]:
        """Slots referenced by live-out bindings under an optimization scope.

        ``frame``: only the frame-final bindings matter (atomic frame).
        ``block``/``inter``: every basic-block boundary must also preserve
        its architectural values (control may exit there).
        """
        protected: set[int] = set()
        maps = [self.live_out]
        if scope != "frame":
            maps.extend(b.live_out for b in self.block_boundaries)
        for mapping in maps:
            for operand in mapping.values():
                if isinstance(operand, DefRef):
                    protected.add(operand.slot)
        return protected

    def flags_protected_slots(self, scope: str = "frame") -> set[int]:
        """Slots whose flag outputs are architecturally live under a scope."""
        protected: set[int] = set()
        if self.flags_live_out_slot is not None:
            protected.add(self.flags_live_out_slot)
        if scope != "frame":
            for boundary in self.block_boundaries:
                if boundary.flags_slot is not None:
                    protected.add(boundary.flags_slot)
        return protected

    def value_dead(self, slot: int, protected: set[int]) -> bool:
        """No consumers and not live-out (value side only)."""
        uop = self.uops[slot]
        if not uop.has_value_dst:
            return True
        return not self.value_children[slot] and slot not in protected

    def flags_dead(self, slot: int, flags_protected: set[int]) -> bool:
        """Flag output unused and not live-out (flag side only)."""
        uop = self.uops[slot]
        if not uop.writes_flags:
            return True
        return not self.flags_children[slot] and slot not in flags_protected

    # ------------------------------------------------------- block info

    def block_of(self, slot: int) -> int:
        """Basic-block index (within the frame) that owns a slot."""
        x86_index = self.uops[slot].x86_index
        block = 0
        for i, start in enumerate(self._block_starts):
            if x86_index >= start:
                block = i
        return block

    # ------------------------------------------------------- statistics

    def valid_count(self) -> int:
        return sum(1 for u in self.uops if u.valid)

    def load_count(self) -> int:
        return sum(1 for u in self.uops if u.valid and u.is_load)

    def store_count(self) -> int:
        return sum(1 for u in self.uops if u.valid and u.is_store)

    def dump(self) -> str:
        """Multi-line rendering of the valid uops (Figure-2 style)."""
        lines = []
        for slot, uop in enumerate(self.uops):
            if uop.valid:
                lines.append(f"{slot:02d} {uop}")
        return "\n".join(lines)
