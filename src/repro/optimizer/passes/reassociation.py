"""Reassociation (paper §3.1, §6.4 "no RA") and copy propagation.

The paper's single most important optimization: it flattens chains of
``reg = reg ± imm`` updates (stack-pointer manipulation from PUSH/POP/
CALL/RET) by re-pointing consumers at the chain's root with an adjusted
displacement, and propagates register copies.  Only after reassociation
do memory uops expose symbolically identical addresses, which is what
lets CSE and store forwarding detect redundant and forwarded loads
("RA is a gateway optimization", §6.4).

Flag safety: re-pointing a *memory* operand or a flag-free ALU uop never
touches flags.  Folding into a flag-writing ALU consumer changes which
operand values produce its CF/OF, so that is only done when the
consumer's flag output is dead.
"""

from __future__ import annotations

from repro.uops.uop import UopOp
from repro.optimizer.buffer import OptimizationBuffer
from repro.optimizer.optuop import ADDRESSED_OPS, MEM_OPS, OPERAND_FIELDS, DefRef, OptUop
from repro.optimizer.passes.base import OptContext, Pass


#: Ops that copy a value or add a constant to it (LEA: or an index).
_RA_OPS = frozenset({UopOp.MOV, UopOp.ADD, UopOp.SUB, UopOp.LEA})
_ADD_SUB = frozenset({UopOp.ADD, UopOp.SUB})
# Opcodes as globals (see ``repro.uops.uop.UopOp``).
_MOV, _ADD, _LEA = UopOp.MOV, UopOp.ADD, UopOp.LEA


class Reassociation(Pass):
    name = "ra"

    def run(self, buf: OptimizationBuffer, ctx: OptContext) -> int:
        changes = 0
        for uop in buf.uops:
            op = uop.op
            if op not in _RA_OPS or not uop.valid:
                continue
            if op is _LEA and uop.src_b is not None:
                changes += self._fold_lea_into_children(buf, ctx, uop)
            elif uop.src_a is None:
                continue
            elif op is _MOV:
                changes += self._copy_propagate(buf, ctx, uop)
            elif op is _LEA:  # dst = src_a + imm
                changes += self._fold_into_children(buf, ctx, uop, uop.imm or 0)
            elif uop.src_b is None and uop.imm is not None:
                # dst = src_a + imm, or src_a - imm
                delta = uop.imm if op is _ADD else -uop.imm
                changes += self._fold_into_children(buf, ctx, uop, delta)
        return changes

    # ---------------------------------------------------------------- MOV

    def _copy_propagate(
        self, buf: OptimizationBuffer, ctx: OptContext, uop: OptUop
    ) -> int:
        """Rewire consumers of a register copy to the copied value."""
        source = uop.src_a
        slot = uop.slot
        changes = 0
        for child in sorted(buf.value_children[slot]):
            if not ctx.can_fold(buf, slot, child):
                continue
            child_uop = buf.uops[child]
            for name in OPERAND_FIELDS:
                operand = getattr(child_uop, name)
                if operand.__class__ is DefRef and operand.slot == slot:
                    buf.rewrite_operand(child, name, source)
                    changes += 1
        # Live-out bindings can also bypass the copy (RAT-level aliasing).
        if ctx.scope != "block":
            maps = [buf.live_out]
            maps.extend(boundary.live_out for boundary in buf.block_boundaries)
            for live_out in maps:
                for reg, bound in live_out.items():
                    if bound.__class__ is DefRef and bound.slot == slot:
                        live_out[reg] = source
                        changes += 1
        return changes

    # ------------------------------------------------------------- chains

    def _fold_into_children(
        self, buf: OptimizationBuffer, ctx: OptContext, uop: OptUop, delta: int
    ) -> int:
        """Re-point children of ``dst = root + delta`` at ``root``."""
        root = uop.src_a
        assert root is not None
        changes = 0
        ref = DefRef(uop.slot)
        for child in sorted(buf.value_children[uop.slot]):
            if not ctx.can_fold(buf, uop.slot, child):
                continue
            child_uop = buf.uops[child]
            if child_uop.op in ADDRESSED_OPS:
                if child_uop.src_a == ref:
                    buf.rewrite_operand(child, "src_a", root)
                    child_uop.imm = _wrap(child_uop.imm, delta)
                    changes += 1
                if child_uop.src_b == ref:
                    buf.rewrite_operand(child, "src_b", root)
                    child_uop.imm = _wrap(child_uop.imm, delta * child_uop.scale)
                    changes += 1
                continue
            if child_uop.op in _ADD_SUB:
                if child_uop.writes_flags and not ctx.flags_dead(buf, child):
                    continue
                if child_uop.src_a == ref and child_uop.src_b is None:
                    sign = 1 if child_uop.op is _ADD else -1
                    # child = (root + delta) op imm  ==  root op' imm'
                    total = sign * (child_uop.imm or 0) + delta
                    buf.rewrite_operand(child, "src_a", root)
                    child_uop.op = UopOp.ADD
                    child_uop.imm = total
                    if child_uop.writes_flags:
                        buf.replace_flags_uses(child, child_uop.flags_src)
                        child_uop.writes_flags = False
                    if child_uop.preserves_cf:
                        # No longer reads the incoming CF once flag-free.
                        if child_uop.flags_src is not None:
                            buf.flags_children[child_uop.flags_src].discard(child)
                        child_uop.preserves_cf = False
                        child_uop.flags_src = None
                    changes += 1
                elif child_uop.op is _ADD and child_uop.src_b is not None:
                    # child = y + (root + delta) -> LEA(y, root, 1, delta)
                    if child_uop.writes_flags and not ctx.flags_dead(buf, child):
                        continue
                    if child_uop.src_a == ref:
                        other_field, this_field = "src_b", "src_a"
                    elif child_uop.src_b == ref:
                        other_field, this_field = "src_a", "src_b"
                    else:  # pragma: no cover - dependency list guarantees a ref
                        continue
                    other = getattr(child_uop, other_field)
                    child_uop.op = UopOp.LEA
                    buf.rewrite_operand(child, "src_a", other)
                    buf.rewrite_operand(child, "src_b", root)
                    child_uop.scale = 1
                    child_uop.imm = _wrap(child_uop.imm, delta) if child_uop.imm else delta
                    if child_uop.writes_flags:
                        buf.replace_flags_uses(child, child_uop.flags_src)
                        child_uop.writes_flags = False
                    changes += 1
        return changes

    def _fold_lea_into_children(
        self, buf: OptimizationBuffer, ctx: OptContext, uop: OptUop
    ) -> int:
        """Fold ``lea dst, [a + b*s + d]`` into index-free memory children."""
        changes = 0
        ref = DefRef(uop.slot)
        for child in sorted(buf.value_children[uop.slot]):
            if not ctx.can_fold(buf, uop.slot, child):
                continue
            child_uop = buf.uops[child]
            if child_uop.op not in MEM_OPS:
                continue
            if child_uop.src_a == ref and child_uop.src_b is None:
                buf.rewrite_operand(child, "src_a", uop.src_a)
                buf.rewrite_operand(child, "src_b", uop.src_b)
                child_uop.scale = uop.scale
                child_uop.imm = _wrap(child_uop.imm, uop.imm or 0)
                changes += 1
        return changes


def _wrap(imm: int | None, delta: int) -> int:
    """Displacement arithmetic with signed-wrapping semantics.

    Displacements are kept as small signed Python ints so that symbolic
    address comparison (literal displacement equality) behaves naturally;
    ``verify.frame_exec`` masks to 32 bits at evaluation time.
    """
    return (imm or 0) + delta
