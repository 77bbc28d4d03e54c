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
from repro.optimizer.optuop import OptUop
from repro.optimizer.passes.base import OptContext, Pass, operand_slot

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


def _eval_alu(op: UopOp, a: int, b: int) -> int:
    """Constant evaluation matching ``verify.frame_exec``'s value semantics."""
    if op is UopOp.ADD:
        return (a + b) & MASK32
    if op is UopOp.SUB:
        return (a - b) & MASK32
    if op is UopOp.AND:
        return a & b
    if op is UopOp.OR:
        return a | b
    if op is UopOp.XOR:
        return a ^ b
    if op is UopOp.MUL:
        return (to_signed(a) * to_signed(b)) & MASK32
    count = b & 0x1F
    if op is UopOp.SHL:
        return (a << count) & MASK32
    if op is UopOp.SHR:
        return a >> count
    if op is UopOp.SAR:
        return (to_signed(a) >> count) & MASK32
    raise ValueError(f"not a foldable ALU op: {op}")


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


class ConstantPropagation(Pass):
    name = "cp"

    def run(self, buf: OptimizationBuffer, ctx: OptContext) -> int:
        changes = 0
        known: dict[int, int] = {}
        for slot in buf.valid_slots():
            uop = buf.uops[slot]
            changes += self._fold_operands(buf, ctx, uop, known)
            value = self._known_value(uop, known)
            if value is not None:
                known[slot] = value
                changes += self._simplify_constant(buf, ctx, uop, value)
            changes += self._simplify_identity(buf, ctx, uop)
            changes += self._discharge_assert(buf, ctx, uop, known)
        return changes

    # ------------------------------------------------------------ helpers

    def _fold_operands(
        self,
        buf: OptimizationBuffer,
        ctx: OptContext,
        uop: OptUop,
        known: dict[int, int],
    ) -> int:
        """Fold constant-producing parents into this uop's immediates."""
        changes = 0
        op = uop.op

        def const_of(operand) -> int | None:
            producer = operand_slot(operand)
            if producer is None or producer not in known:
                return None
            if not ctx.can_fold(buf, producer, uop.slot):
                return None
            return known[producer]

        if op in _FOLDABLE_ALU:
            value = const_of(uop.src_b)
            if value is not None and uop.imm is None:
                buf.rewrite_operand(uop.slot, "src_b", None)
                uop.imm = value
                changes += 1
            elif op in _COMMUTATIVE and uop.src_b is not None:
                value = const_of(uop.src_a)
                if value is not None and uop.imm is None:
                    # Swap so the constant lands in the immediate field.
                    buf.rewrite_operand(uop.slot, "src_a", uop.src_b)
                    buf.rewrite_operand(uop.slot, "src_b", None)
                    uop.imm = value
                    changes += 1
        elif op in (UopOp.LOAD, UopOp.STORE, UopOp.LEA):
            value = const_of(uop.src_a)
            if value is not None:
                buf.rewrite_operand(uop.slot, "src_a", None)
                uop.imm = ((uop.imm or 0) + value) & MASK32
                changes += 1
            value = const_of(uop.src_b)
            if value is not None:
                buf.rewrite_operand(uop.slot, "src_b", None)
                uop.imm = ((uop.imm or 0) + value * uop.scale) & MASK32
                uop.scale = 1
                changes += 1
        elif op is UopOp.MOV:
            value = const_of(uop.src_a)
            if value is not None:  # MOV writes no flags: always convertible
                buf.rewrite_operand(uop.slot, "src_a", None)
                uop.op = UopOp.LIMM
                uop.imm = value
                changes += 1
        elif op is UopOp.JMPI:
            value = const_of(uop.src_a)
            if value is not None:
                buf.rewrite_operand(uop.slot, "src_a", None)
                uop.op = UopOp.JMP
                uop.target = value
                changes += 1
        elif op is UopOp.ASSERT_CMP:
            value = const_of(uop.src_b)
            if value is not None and uop.imm is None:
                buf.rewrite_operand(uop.slot, "src_b", None)
                uop.imm = value
                changes += 1
        return changes

    def _known_value(self, uop: OptUop, known: dict[int, int]) -> int | None:
        """Compute this slot's constant value, if statically known."""
        op = uop.op
        if not uop.valid:
            return None
        if op is UopOp.LIMM:
            return (uop.imm or 0) & MASK32
        if (
            op in (UopOp.XOR, UopOp.SUB)
            and uop.src_a is not None
            and uop.src_a == uop.src_b
        ):
            return 0  # the x86 zeroing idiom (XOR r,r / SUB r,r)
        if op is UopOp.MOV:
            producer = operand_slot(uop.src_a)
            if producer is not None and producer in known:
                return known[producer]
            return None
        if op is UopOp.LEA and uop.src_a is None and uop.src_b is None:
            return (uop.imm or 0) & MASK32
        if op in _FOLDABLE_ALU and uop.src_b is None and uop.imm is not None:
            producer = operand_slot(uop.src_a)
            if producer is not None and producer in known:
                return _eval_alu(op, known[producer], uop.imm & MASK32)
            return None
        if op is UopOp.NOT:
            producer = operand_slot(uop.src_a)
            if producer is not None and producer in known:
                return (~known[producer]) & MASK32
        if op is UopOp.NEG:
            producer = operand_slot(uop.src_a)
            if producer is not None and producer in known:
                return (-known[producer]) & MASK32
        return None

    def _simplify_constant(
        self, buf: OptimizationBuffer, ctx: OptContext, uop: OptUop, value: int
    ) -> int:
        """Rewrite a fully constant op as LIMM (when its flags are dead)."""
        if uop.op in (UopOp.LIMM,):
            return 0
        if uop.op not in _FOLDABLE_ALU and uop.op not in (
            UopOp.NEG,
            UopOp.NOT,
            UopOp.LEA,
        ):
            return 0
        if uop.writes_flags and not ctx.flags_dead(buf, uop.slot):
            return 0
        producer = operand_slot(uop.src_a)
        if producer is not None and not ctx.can_fold(buf, producer, uop.slot):
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
        if uop.src_a is None or uop.src_b is not None or uop.imm is None:
            return 0
        identity = _IDENTITY.get(uop.op)
        if identity is None or (uop.imm & MASK32) != identity:
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
        if uop.op is not UopOp.ASSERT_CMP or not uop.valid:
            return 0
        left = operand_slot(uop.src_a)
        if uop.src_a is not None and (left is None or left not in known):
            return 0
        if uop.src_b is not None:
            right_slot = operand_slot(uop.src_b)
            if right_slot is None or right_slot not in known:
                return 0
            right = known[right_slot]
        elif uop.imm is not None:
            right = uop.imm & MASK32
        else:
            return 0
        if uop.writes_flags and not ctx.flags_dead(buf, uop.slot):
            return 0
        a = known[left] if uop.src_a is not None else 0
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
