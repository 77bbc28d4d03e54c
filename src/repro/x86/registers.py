"""Architectural register and flag definitions for the x86 subset.

The subset models the eight 32-bit general-purpose registers of IA-32 and
the four arithmetic condition flags the paper's optimizations interact
with (ZF, SF, CF, OF).  Segment registers, FP stack, and MMX/SSE state are
out of scope: the paper's workloads and optimizations are integer code.
"""

from __future__ import annotations

import enum


class Reg(enum.IntEnum):
    """The eight 32-bit general-purpose x86 registers."""

    EAX = 0
    ECX = 1
    EDX = 2
    EBX = 3
    ESP = 4
    EBP = 5
    ESI = 6
    EDI = 7

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: Registers in encoding order, useful for iteration in state snapshots.
ALL_REGS: tuple[Reg, ...] = tuple(Reg)

#: Number of architectural general-purpose registers.
NUM_REGS: int = len(ALL_REGS)


class Flag(enum.IntEnum):
    """Condition flags modeled by the subset (bit positions in EFLAGS)."""

    CF = 0
    ZF = 6
    SF = 7
    OF = 11

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: All modeled flags in a stable order.
ALL_FLAGS: tuple[Flag, ...] = (Flag.CF, Flag.ZF, Flag.SF, Flag.OF)

#: Bit mask that selects the modeled flag bits out of an EFLAGS word.
FLAGS_MASK: int = sum(1 << f for f in ALL_FLAGS)

MASK32 = 0xFFFFFFFF
MASK16 = 0xFFFF
MASK8 = 0xFF


def to_signed(value: int, bits: int = 32) -> int:
    """Interpret ``value`` (unsigned) as a two's-complement signed integer."""
    sign_bit = 1 << (bits - 1)
    mask = (1 << bits) - 1
    value &= mask
    return value - (1 << bits) if value & sign_bit else value


def to_unsigned(value: int, bits: int = 32) -> int:
    """Truncate ``value`` to an unsigned integer of the given width."""
    return value & ((1 << bits) - 1)


_CF_BIT, _ZF_BIT, _SF_BIT, _OF_BIT = (1 << int(flag) for flag in ALL_FLAGS)


def pack_flags(cf: bool, zf: bool, sf: bool, of: bool) -> int:
    """Pack individual flag booleans into an EFLAGS-style word (an ``int``)."""
    return (
        (_CF_BIT if cf else 0)
        | (_ZF_BIT if zf else 0)
        | (_SF_BIT if sf else 0)
        | (_OF_BIT if of else 0)
    )


def unpack_flags(word: int) -> tuple[bool, bool, bool, bool]:
    """Unpack an EFLAGS-style word into ``(cf, zf, sf, of)``: the inverse
    of :func:`pack_flags`, in the shape ``execute_frame`` takes."""
    return (
        bool(word & _CF_BIT),
        bool(word & _ZF_BIT),
        bool(word & _SF_BIT),
        bool(word & _OF_BIT),
    )
