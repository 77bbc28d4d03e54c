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

    def address_of(uop: OptUop) -> int:
        address = uop.imm or 0
        if uop.src_a is not None:
            address += value_of(uop.src_a)
        if uop.src_b is not None:
            address += value_of(uop.src_b) * uop.scale
        return address & MASK32

    fired_slot: int | None = None
    for uop in buffer.uops:
        if not uop.valid:
            continue
        op = uop.op
        if op is _STORE:
            address = address_of(uop)
            size = uop.size
            value = value_of(uop.src_data) & ((1 << (8 * size)) - 1)
            for i in range(size):
                local_memory[(address + i) & MASK32] = (value >> (8 * i)) & 0xFF
            stores.append((address, size, value))
        elif op is _LOAD:
            address = address_of(uop)
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
            result, flags = _evaluate(uop, value_of, flags_of, address_of)
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
_LOAD, _STORE = UopOp.LOAD, UopOp.STORE


def _evaluate(uop, value_of, flags_of, address_of):
    """Evaluate one non-memory uop: returns (value | _FIRE | None,
    flags | None).  Loads and stores run in :func:`execute_frame`."""
    op = uop.op

    if op in (UopOp.NOP, UopOp.JMP, UopOp.JMPI, UopOp.BR):
        return None, None

    if op is UopOp.ASSERT:
        cf, zf, sf, of = flags_of(uop)
        holds = cond_holds(uop.cond, cf=cf, zf=zf, sf=sf, of=of)
        return (None if holds else _FIRE), None

    if op is UopOp.ASSERT_CMP:
        a = value_of(uop.src_a) if uop.src_a is not None else 0
        b = value_of(uop.src_b) if uop.src_b is not None else (uop.imm or 0) & MASK32
        kind = uop.cmp_kind or UopOp.SUB
        if kind is UopOp.SUB:
            result = (a - b) & MASK32
            flags = (
                a < b,
                result == 0,
                bool(result & 0x8000_0000),
                to_signed(a) - to_signed(b) != to_signed(result),
            )
        else:
            result = a & b
            flags = (False, result == 0, bool(result & 0x8000_0000), False)
        holds = cond_holds(uop.cond, cf=flags[0], zf=flags[1], sf=flags[2], of=flags[3])
        out_flags = flags if uop.writes_flags else None
        return (None if holds else _FIRE), out_flags

    if op is UopOp.LIMM:
        return (uop.imm or 0) & MASK32, None
    if op is UopOp.MOV:
        return value_of(uop.src_a), None
    if op is UopOp.LEA:
        return address_of(uop), None
    if op is UopOp.SEXT:
        return to_signed(value_of(uop.src_a), 8 * uop.size) & MASK32, None
    if op in (UopOp.DIVQ, UopOp.DIVR):
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
        if op is UopOp.DIVQ:
            return quotient & MASK32, None
        return (dividend - quotient * divisor) & MASK32, None

    # ALU group.
    a = value_of(uop.src_a) if uop.src_a is not None else 0
    if op is UopOp.NEG:
        result = (-a) & MASK32
        flags = (
            (a != 0, result == 0, bool(result & 0x8000_0000), a == 0x8000_0000)
            if uop.writes_flags
            else None
        )
        return result, flags
    if op is UopOp.NOT:
        return (~a) & MASK32, None
    if op in (UopOp.SHL, UopOp.SHR, UopOp.SAR):
        count = (
            value_of(uop.src_b) if uop.src_b is not None else (uop.imm or 0)
        ) & 0x1F
        if count == 0:
            flags = _passthrough_flags(uop, flags_of) if uop.writes_flags else None
            return a, flags
        if op is UopOp.SHL:
            result = (a << count) & MASK32
            cf = bool((a >> (32 - count)) & 1)
        elif op is UopOp.SHR:
            result = a >> count
            cf = bool((a >> (count - 1)) & 1)
        else:
            result = (to_signed(a) >> count) & MASK32
            cf = bool((to_signed(a) >> (count - 1)) & 1)
        flags = (
            (cf, result == 0, bool(result & 0x8000_0000), False)
            if uop.writes_flags
            else None
        )
        return result, flags

    b = value_of(uop.src_b) if uop.src_b is not None else (uop.imm or 0) & MASK32
    if op is UopOp.ADD:
        result = (a + b) & MASK32
        cf = a + b > MASK32
        of = to_signed(a) + to_signed(b) != to_signed(result)
    elif op is UopOp.SUB:
        result = (a - b) & MASK32
        cf = a < b
        of = to_signed(a) - to_signed(b) != to_signed(result)
    elif op is UopOp.AND:
        result, cf, of = a & b, False, False
    elif op is UopOp.OR:
        result, cf, of = a | b, False, False
    elif op is UopOp.XOR:
        result, cf, of = a ^ b, False, False
    elif op is UopOp.MUL:
        full = to_signed(a) * to_signed(b)
        result = full & MASK32
        cf = of = to_signed(result) != full
    else:  # pragma: no cover - exhaustive
        raise FrameExecutionError(f"unimplemented uop {uop}")
    if not uop.writes_flags:
        return result, None
    if uop.preserves_cf:
        cf = flags_of(uop)[0]
    return result, (cf, result == 0, bool(result & 0x8000_0000), of)


def _passthrough_flags(uop, flags_of):
    """Shift-by-zero: the flag word passes through unchanged."""
    return flags_of(uop)
