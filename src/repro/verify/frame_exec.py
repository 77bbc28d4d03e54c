"""Execution of optimized frames against concrete state.

Frames in the optimization buffer are straight-line, single-assignment
programs over ``LiveIn``/``DefRef`` operands.  This module evaluates them
— computing every memory address from operand *values* rather than the
trace's recorded addresses — so the State Verifier can check that an
optimized frame transforms architectural state exactly as the original
instruction stream did (paper §5.1.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.x86.instructions import cond_holds
from repro.x86.registers import MASK32, pack_flags, to_signed
from repro.uops.uop import ARCH_REGS, UopOp, UReg
from repro.optimizer.buffer import OptimizationBuffer
from repro.optimizer.optuop import DefRef, LiveIn, Operand, OptUop


class FrameExecutionError(Exception):
    """Raised for invalid frames (undefined operand, missing memory, ...)."""


Flags = tuple[bool, bool, bool, bool]  # (cf, zf, sf, of)


@dataclass
class FrameOutcome:
    """Result of executing one frame instance."""

    fired: bool
    firing_slot: int | None
    final_regs: dict[UReg, int]
    final_flags: int
    stores: list[tuple[int, int, int]]  # (address, size, value)

    @property
    def committed(self) -> bool:
        return not self.fired


def execute_frame(
    buffer: OptimizationBuffer,
    live_in_regs: dict[UReg, int],
    live_in_flags: Flags,
    read_memory: Callable[[int], int | None],
) -> FrameOutcome:
    """Execute a frame's valid uops in order.

    ``read_memory(byte_address)`` supplies initial memory bytes (None if
    the byte is unknown — treated as a frame validity violation, paper
    rule 1: "all loads can be found in the initial memory map").
    """
    slot_values: dict[int, int] = {}
    slot_flags: dict[int, Flags] = {}
    local_memory: dict[int, int] = {}
    stores: list[tuple[int, int, int]] = []

    def value_of(operand: Operand | None) -> int:
        if operand.__class__ is DefRef:
            try:
                return slot_values[operand.slot]
            except KeyError:
                raise FrameExecutionError(
                    f"use of unset slot {operand.slot}"
                ) from None
        if operand.__class__ is LiveIn:
            return live_in_regs.get(operand.reg, 0)
        raise FrameExecutionError(f"cannot evaluate operand {operand!r}")

    def flags_of(uop: OptUop) -> Flags:
        if uop.flags_src is None:
            return live_in_flags
        try:
            return slot_flags[uop.flags_src]
        except KeyError:
            raise FrameExecutionError(
                f"use of unset flags slot {uop.flags_src}"
            ) from None

    fired_slot: int | None = None
    for uop in buffer.uops:
        if not uop.valid:
            continue
        op = uop.op
        if op is _STORE:
            address = _address(uop, value_of)
            size = uop.size
            value = value_of(uop.src_data) & ((1 << (8 * size)) - 1)
            for i in range(size):
                local_memory[(address + i) & MASK32] = (value >> (8 * i)) & 0xFF
            stores.append((address, size, value))
        elif op is _LOAD:
            address = _address(uop, value_of)
            size = uop.size
            value = 0
            for i in range(size):
                byte_address = (address + i) & MASK32
                byte = local_memory.get(byte_address)
                if byte is None:
                    byte = read_memory(byte_address)
                    if byte is None:
                        raise FrameExecutionError(
                            f"load from {byte_address:#x} not covered by the "
                            f"initial memory map"
                        )
                value |= (byte & 0xFF) << (8 * i)
            if uop.sign_extend:
                value = to_signed(value, 8 * size) & MASK32
            slot_values[uop.slot] = value
        else:
            result, flags = _HANDLERS.get(op, _unimplemented)(uop, value_of, flags_of)
            if result is _FIRE:
                fired_slot = uop.slot
                break
            if result is not None:
                slot_values[uop.slot] = result
            if flags is not None:
                slot_flags[uop.slot] = flags

    # Unwritten registers keep their live-in value, and a fired frame
    # rolls every register and the flags back to the frame entry
    # (atomicity, paper §2).
    live_out = buffer.live_out if fired_slot is None else {}
    final_regs: dict[UReg, int] = {}
    for reg in ARCH_REGS:
        bound = live_out.get(reg)
        final_regs[reg] = (
            live_in_regs.get(reg, 0) if bound is None else value_of(bound)
        )
    if buffer.flags_live_out_slot is not None and fired_slot is None:
        cf, zf, sf, of = slot_flags.get(buffer.flags_live_out_slot, live_in_flags)
    else:
        cf, zf, sf, of = live_in_flags
    return FrameOutcome(
        fired=fired_slot is not None,
        firing_slot=fired_slot,
        final_regs=final_regs,
        final_flags=pack_flags(cf, zf, sf, of),
        stores=stores,
    )


_FIRE = object()  # sentinel returned by firing assertions
# Opcodes tested per uop, as globals (see ``repro.uops.uop.UopOp``).
_LOAD, _STORE = UopOp.LOAD, UopOp.STORE
_ADD, _SUB, _MUL, _AND, _OR = UopOp.ADD, UopOp.SUB, UopOp.MUL, UopOp.AND, UopOp.OR
_SHL, _SHR = UopOp.SHL, UopOp.SHR
_SIGN = 0x8000_0000


def _unimplemented(uop, value_of, flags_of):
    raise FrameExecutionError(f"unimplemented uop {uop}")


def _assert(uop, value_of, flags_of):
    cf, zf, sf, of = flags_of(uop)
    holds = cond_holds(uop.cond, cf=cf, zf=zf, sf=sf, of=of)
    return (None if holds else _FIRE), None


def _assert_cmp(uop, value_of, flags_of):
    a = value_of(uop.src_a) if uop.src_a is not None else 0
    b = value_of(uop.src_b) if uop.src_b is not None else (uop.imm or 0) & MASK32
    if uop.cmp_kind in (None, _SUB):  # CMP (the default), else TEST
        result = (a - b) & MASK32
        # Signed overflow: the operands' signs differ and the result's
        # sign differs from the minuend's.
        of = bool((a ^ b) & (a ^ result) & _SIGN)
        flags = (a < b, result == 0, bool(result & _SIGN), of)
    else:
        result = a & b
        flags = (False, result == 0, bool(result & _SIGN), False)
    holds = cond_holds(uop.cond, cf=flags[0], zf=flags[1], sf=flags[2], of=flags[3])
    return (None if holds else _FIRE), (flags if uop.writes_flags else None)


def _divide(uop, value_of, flags_of):
    low = value_of(uop.src_a)
    divisor = to_signed(
        value_of(uop.src_b) if uop.src_b is not None else (uop.imm or 0)
    )
    high = value_of(uop.src_data) if uop.src_data is not None else 0
    if divisor == 0:
        raise FrameExecutionError(f"division by zero in {uop}")
    dividend = to_signed((high << 32) | low, bits=64)
    quotient = abs(dividend) // abs(divisor)  # exact, toward zero
    if (dividend < 0) != (divisor < 0):
        quotient = -quotient
    if not -0x8000_0000 <= quotient <= 0x7FFF_FFFF:
        raise FrameExecutionError(f"quotient overflow in {uop}")
    if uop.op is UopOp.DIVQ:
        return quotient & MASK32, None
    return (dividend - quotient * divisor) & MASK32, None


def _neg(uop, value_of, flags_of):
    a = value_of(uop.src_a) if uop.src_a is not None else 0
    result = (-a) & MASK32
    if not uop.writes_flags:
        return result, None
    return result, (a != 0, result == 0, bool(result & _SIGN), a == _SIGN)


def _shift(uop, value_of, flags_of):
    a = value_of(uop.src_a) if uop.src_a is not None else 0
    count = (
        value_of(uop.src_b) if uop.src_b is not None else (uop.imm or 0)
    ) & 0x1F
    if count == 0:
        # The flag word passes through unchanged.
        return a, (flags_of(uop) if uop.writes_flags else None)
    op = uop.op
    if op is _SHL:
        result = (a << count) & MASK32
        cf = bool((a >> (32 - count)) & 1)
    elif op is _SHR:
        result = a >> count
        cf = bool((a >> (count - 1)) & 1)
    else:
        result = (to_signed(a) >> count) & MASK32
        cf = bool((to_signed(a) >> (count - 1)) & 1)
    if not uop.writes_flags:
        return result, None
    return result, (cf, result == 0, bool(result & _SIGN), False)


def _alu(uop, value_of, flags_of):
    a = value_of(uop.src_a) if uop.src_a is not None else 0
    b = value_of(uop.src_b) if uop.src_b is not None else (uop.imm or 0) & MASK32
    op = uop.op
    if op is _SUB:
        result = (a - b) & MASK32
        # Signed overflow: the operands' signs differ and the result's
        # sign differs from the minuend's.
        cf, of = a < b, bool((a ^ b) & (a ^ result) & _SIGN)
    elif op is _ADD:
        result = (a + b) & MASK32
        # Signed overflow: the operands' signs agree and the result's differs.
        cf, of = a + b > MASK32, bool(~(a ^ b) & (a ^ result) & _SIGN)
    elif op is _MUL:
        full = to_signed(a) * to_signed(b)
        result = full & MASK32
        cf = of = to_signed(result) != full
    else:
        result = a & b if op is _AND else a | b if op is _OR else a ^ b
        cf = of = False
    if not uop.writes_flags:
        return result, None
    if uop.preserves_cf:  # INC/DEC keep the incoming CF
        cf = flags_of(uop)[0]
    return result, (cf, result == 0, bool(result & _SIGN), of)


#: The one table of uop value semantics: every non-memory opcode's
#: handler, called as ``handler(uop, value_of, flags_of)`` and returning
#: ``(value | _FIRE | None, flags | None)``.  Loads and stores run in
#: :func:`execute_frame` itself.
_HANDLERS = {
    **dict.fromkeys(
        (UopOp.NOP, UopOp.JMP, UopOp.JMPI, UopOp.BR),
        lambda uop, value_of, flags_of: (None, None),
    ),
    UopOp.ASSERT: _assert,
    UopOp.ASSERT_CMP: _assert_cmp,
    UopOp.LIMM: lambda uop, value_of, flags_of: ((uop.imm or 0) & MASK32, None),
    UopOp.MOV: lambda uop, value_of, flags_of: (value_of(uop.src_a), None),
    UopOp.LEA: lambda uop, value_of, flags_of: (_address(uop, value_of), None),
    UopOp.SEXT: lambda uop, value_of, flags_of: (
        to_signed(value_of(uop.src_a), 8 * uop.size) & MASK32,
        None,
    ),
    UopOp.NEG: _neg,
    UopOp.NOT: lambda uop, value_of, flags_of: (
        ~(value_of(uop.src_a) if uop.src_a is not None else 0) & MASK32,
        None,
    ),
    **dict.fromkeys((UopOp.DIVQ, UopOp.DIVR), _divide),
    **dict.fromkeys((UopOp.SHL, UopOp.SHR, UopOp.SAR), _shift),
    **dict.fromkeys(
        (UopOp.ADD, UopOp.SUB, UopOp.AND, UopOp.OR, UopOp.XOR, UopOp.MUL), _alu
    ),
}


def _address(uop, value_of) -> int:
    """A memory or LEA uop's effective address."""
    address = uop.imm or 0
    if uop.src_a is not None:
        address += value_of(uop.src_a)
    if uop.src_b is not None:
        address += value_of(uop.src_b) * uop.scale
    return address & MASK32
