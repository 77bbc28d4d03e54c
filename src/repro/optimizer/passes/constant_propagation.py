"""Constant propagation (paper §6.4, "no CP").

Propagates LIMM-defined constants into consumers' immediate fields, folds
fully constant operations, simplifies identity operations (``x + 0``),
statically discharges value assertions whose operands are constants, and
converts indirect jumps with constant targets into direct jumps — the
paper's example of removing a RET's return jump once store forwarding has
forwarded the constant return address (§3.3).

Folding an operand into an immediate never changes the consumer's result
or flags (same input value).  *Replacing* a flag-writing uop (e.g. turning
a constant ADD into a LIMM) is only done when its flag output is dead,
because our uop ISA has no "load constant flags" operation.
"""

from __future__ import annotations

from repro.x86.instructions import cond_holds
from repro.x86.registers import MASK32, to_signed
from repro.uops.uop import UopOp
from repro.optimizer.buffer import OptimizationBuffer
from repro.optimizer.optuop import ADDRESSED_OPS, DefRef, OptUop
from repro.optimizer.passes.base import OptContext, Pass

_COMMUTATIVE = frozenset({UopOp.ADD, UopOp.AND, UopOp.OR, UopOp.XOR, UopOp.MUL})

_FOLDABLE_ALU = frozenset(
    {
        UopOp.ADD,
        UopOp.SUB,
        UopOp.AND,
        UopOp.OR,
        UopOp.XOR,
        UopOp.SHL,
        UopOp.SHR,
        UopOp.SAR,
        UopOp.MUL,
    }
)


#: Constant evaluation of each foldable ALU op, matching
#: ``verify.frame_exec``'s value semantics.
_EVAL_ALU = {
    UopOp.ADD: lambda a, b: (a + b) & MASK32,
    UopOp.SUB: lambda a, b: (a - b) & MASK32,
    UopOp.AND: lambda a, b: a & b,
    UopOp.OR: lambda a, b: a | b,
    UopOp.XOR: lambda a, b: a ^ b,
    UopOp.MUL: lambda a, b: (to_signed(a) * to_signed(b)) & MASK32,
    UopOp.SHL: lambda a, b: (a << (b & 0x1F)) & MASK32,
    UopOp.SHR: lambda a, b: a >> (b & 0x1F),
    UopOp.SAR: lambda a, b: (to_signed(a) >> (b & 0x1F)) & MASK32,
}


#: The immediate that makes ``x op imm`` equal to ``x``.
_IDENTITY = {
    UopOp.ADD: 0,
    UopOp.SUB: 0,
    UopOp.OR: 0,
    UopOp.XOR: 0,
    UopOp.SHL: 0,
    UopOp.SHR: 0,
    UopOp.SAR: 0,
    UopOp.MUL: 1,
}


#: Ops whose constant value may be rewritten as a LIMM.
_TO_LIMM = _FOLDABLE_ALU | {UopOp.NEG, UopOp.NOT, UopOp.LEA}
#: Ops that give 0 on equal operands (the x86 zeroing idiom).
_ZEROING = frozenset({UopOp.XOR, UopOp.SUB})
# The run loop's opcodes as globals (see ``repro.uops.uop.UopOp``).
_LIMM, _MOV, _NOT, _NEG, _LEA = (
    UopOp.LIMM, UopOp.MOV, UopOp.NOT, UopOp.NEG, UopOp.LEA
)
_ASSERT_CMP = UopOp.ASSERT_CMP


class ConstantPropagation(Pass):
    name = "cp"

    def run(self, buf: OptimizationBuffer, ctx: OptContext) -> int:
        changes = 0
        known: dict[int, int] = {}  # slot -> its statically known value
        block = ctx.scope == "block"
        for uop in buf.uops:
            if not uop.valid:
                continue
            slot = uop.slot
            # The known constants behind this uop's DefRef operands.
            a, b = uop.src_a, uop.src_b
            const_a = known.get(a.slot) if a.__class__ is DefRef else None
            const_b = known.get(b.slot) if b.__class__ is DefRef else None
            if block:
                if const_a is not None and not ctx.can_fold(buf, a.slot, slot):
                    const_a = None
                if const_b is not None and not ctx.can_fold(buf, b.slot, slot):
                    const_b = None
            if const_a is not None or const_b is not None:
                changes += self._fold_operands(buf, uop, const_a, const_b)
            # This slot's own value, if statically known.
            op, value, source = uop.op, None, uop.src_a
            if op is _LIMM:
                value = (uop.imm or 0) & MASK32
            elif source.__class__ is DefRef and source.slot in known:
                if op is _MOV:
                    value = known[source.slot]
                elif op in _FOLDABLE_ALU and uop.src_b is None and uop.imm is not None:
                    value = _EVAL_ALU[op](known[source.slot], uop.imm & MASK32)
                elif op is _NOT:
                    value = (~known[source.slot]) & MASK32
                elif op is _NEG:
                    value = (-known[source.slot]) & MASK32
            if op in _ZEROING and source is not None and source == uop.src_b:
                value = 0  # the x86 zeroing idiom (XOR r,r / SUB r,r)
            elif op is _LEA and source is None and uop.src_b is None:
                value = (uop.imm or 0) & MASK32
            if value is not None:
                known[slot] = value
                if op in _TO_LIMM:
                    changes += self._to_limm(buf, ctx, uop, value)
            if (
                uop.imm is not None
                and uop.src_b is None
                and uop.src_a is not None
                and uop.op in _IDENTITY
            ):
                changes += self._simplify_identity(buf, ctx, uop)
            if op is _ASSERT_CMP:
                changes += self._discharge_assert(buf, ctx, uop, known)
        return changes

    # ------------------------------------------------------------ helpers

    def _fold_operands(
        self, buf: OptimizationBuffer, uop: OptUop, const_a, const_b
    ) -> int:
        """Fold the constants behind this uop's operands into its
        immediates (``const_a``/``const_b``: None when not known)."""
        op = uop.op
        slot = uop.slot
        if op in _FOLDABLE_ALU:
            if const_b is not None and uop.imm is None:
                buf.rewrite_operand(slot, "src_b", None)
                uop.imm = const_b
                return 1
            if op in _COMMUTATIVE and uop.src_b is not None:
                if const_a is not None and uop.imm is None:
                    # Swap so the constant lands in the immediate field.
                    buf.rewrite_operand(slot, "src_a", uop.src_b)
                    buf.rewrite_operand(slot, "src_b", None)
                    uop.imm = const_a
                    return 1
            return 0
        if op in ADDRESSED_OPS:
            changes = 0
            if const_a is not None:
                buf.rewrite_operand(slot, "src_a", None)
                uop.imm = ((uop.imm or 0) + const_a) & MASK32
                changes += 1
            if const_b is not None:
                buf.rewrite_operand(slot, "src_b", None)
                uop.imm = ((uop.imm or 0) + const_b * uop.scale) & MASK32
                uop.scale = 1
                changes += 1
            return changes
        if (op is _MOV or op is UopOp.JMPI) and const_a is not None:
            buf.rewrite_operand(slot, "src_a", None)
            if op is _MOV:  # MOV writes no flags: always convertible
                uop.op = UopOp.LIMM
                uop.imm = const_a
            else:
                uop.op = UopOp.JMP
                uop.target = const_a
            return 1
        if op is _ASSERT_CMP and const_b is not None and uop.imm is None:
            buf.rewrite_operand(slot, "src_b", None)
            uop.imm = const_b
            return 1
        return 0

    def _to_limm(
        self, buf: OptimizationBuffer, ctx: OptContext, uop: OptUop, value: int
    ) -> int:
        """Rewrite a fully constant op as LIMM (when its flags are dead)."""
        if uop.writes_flags and not ctx.flags_dead(buf, uop.slot):
            return 0
        producer = uop.src_a
        if producer.__class__ is DefRef and not ctx.can_fold(
            buf, producer.slot, uop.slot
        ):
            return 0
        buf.rewrite_operand(uop.slot, "src_a", None)
        buf.rewrite_operand(uop.slot, "src_b", None)
        uop.op = UopOp.LIMM
        uop.imm = value
        uop.scale = 1
        if uop.writes_flags:
            buf.replace_flags_uses(uop.slot, uop.flags_src)
            uop.writes_flags = False
        return 1

    def _simplify_identity(
        self, buf: OptimizationBuffer, ctx: OptContext, uop: OptUop
    ) -> int:
        """``x op identity`` -> MOV x (when flags are dead)."""
        if (uop.imm & MASK32) != _IDENTITY[uop.op]:
            return 0
        if uop.writes_flags and not ctx.flags_dead(buf, uop.slot):
            return 0
        uop.op = UopOp.MOV
        uop.imm = None
        if uop.writes_flags:
            buf.replace_flags_uses(uop.slot, uop.flags_src)
            uop.writes_flags = False
        return 1

    def _discharge_assert(
        self,
        buf: OptimizationBuffer,
        ctx: OptContext,
        uop: OptUop,
        known: dict[int, int],
    ) -> int:
        """Remove value assertions whose outcome is statically true."""
        left, right_operand = uop.src_a, uop.src_b
        if left is not None and (left.__class__ is not DefRef or left.slot not in known):
            return 0
        if right_operand is not None:
            if right_operand.__class__ is not DefRef or right_operand.slot not in known:
                return 0
            right = known[right_operand.slot]
        elif uop.imm is not None:
            right = uop.imm & MASK32
        else:
            return 0
        if uop.writes_flags and not ctx.flags_dead(buf, uop.slot):
            return 0
        a = known[left.slot] if left is not None else 0
        kind = uop.cmp_kind or UopOp.SUB
        if kind is UopOp.SUB:
            result = (a - right) & MASK32
            cf = a < right
            of = to_signed(a) - to_signed(right) != to_signed(result)
        else:
            result = a & right
            cf = of = False
        zf = result == 0
        sf = bool(result & 0x8000_0000)
        assert uop.cond is not None
        if cond_holds(uop.cond, cf=cf, zf=zf, sf=sf, of=of):
            if uop.writes_flags:
                buf.replace_flags_uses(uop.slot, uop.flags_src)
            buf.invalidate(uop.slot)
            return 1
        # Statically false: the frame would always fire; keep the assertion
        # (the fire cooldown stops the sequencer re-dispatching such frames).
        return 0
