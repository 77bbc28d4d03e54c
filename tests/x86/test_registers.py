"""Register/flag definitions and numeric helpers."""

import pytest

from repro.x86.registers import (
    ALL_FLAGS,
    ALL_REGS,
    FLAGS_MASK,
    Flag,
    Reg,
    pack_flags,
    to_signed,
    to_unsigned,
    unpack_flags,
)


def test_eight_general_purpose_registers():
    assert len(ALL_REGS) == 8
    assert Reg.EAX == 0 and Reg.EDI == 7


def test_esp_is_register_four():
    # Encoding order matters: decode flows and uop conversion rely on it.
    assert Reg.ESP == 4


def test_flag_bit_positions_match_eflags():
    assert Flag.CF == 0
    assert Flag.ZF == 6
    assert Flag.SF == 7
    assert Flag.OF == 11


def test_flags_mask_covers_exactly_the_modeled_flags():
    assert FLAGS_MASK == (1 << 0) | (1 << 6) | (1 << 7) | (1 << 11)


def test_pack_flags_all_set():
    assert pack_flags(True, True, True, True) == FLAGS_MASK


@pytest.mark.parametrize("bits", range(16))
def test_pack_flags_exhaustive(bits):
    cf, zf, sf, of = (bool(bits & (1 << i)) for i in range(4))
    word = pack_flags(cf, zf, sf, of)
    expected = sum(
        1 << flag for flag, is_set in zip(ALL_FLAGS, (cf, zf, sf, of)) if is_set
    )
    assert word == expected
    assert unpack_flags(word) == (cf, zf, sf, of)
    # An int, never a bool: the text and JSON trace forms print the type.
    assert type(word) is int


@pytest.mark.parametrize(
    "value,expected",
    [(0, 0), (1, 1), (0x7FFFFFFF, 0x7FFFFFFF), (0x80000000, -0x80000000),
     (0xFFFFFFFF, -1)],
)
def test_to_signed_32(value, expected):
    assert to_signed(value) == expected


def test_to_signed_other_widths():
    assert to_signed(0xFF, bits=8) == -1
    assert to_signed(0x7F, bits=8) == 127
    assert to_signed(0x8000, bits=16) == -32768


def test_to_unsigned_truncates():
    assert to_unsigned(-1) == 0xFFFFFFFF
    assert to_unsigned(1 << 40) == 0
    assert to_unsigned(-1, ) == 0xFFFFFFFF


def test_signed_unsigned_roundtrip():
    for value in (0, 1, -1, 2**31 - 1, -(2**31)):
        assert to_signed(to_unsigned(value)) == value
