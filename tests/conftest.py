"""Shared fixtures."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import fuzz_frames  # noqa: E402
from repro.harness.figures import ResultMatrix  # noqa: E402
from repro.x86 import Assembler, Cond, Imm, Reg, mem  # noqa: E402


@pytest.fixture(scope="session")
def matrix() -> ResultMatrix:
    """The default-seed result matrix every test shares.

    One set of (workload, config) runs backs every paper claim, as in the
    paper, and ``matrix.trace(name)`` is the one source of default-seed
    workload traces: tests that only consume a trace read it here instead
    of re-emulating it.  Shared traces and results must not be mutated.
    """
    return ResultMatrix()


@pytest.fixture(scope="session")
def oracle_frames():
    """The frames the differential oracle constructs for programs 0-49
    of fuzz campaign seed 1.  Shared: remap or copy them, never mutate."""
    return fuzz_frames(1, 50)


@pytest.fixture
def loop_asm() -> Assembler:
    """A small call-in-loop program exercising most decode flows."""
    asm = Assembler()
    asm.data_words(0x500000, list(range(1, 33)))
    asm.mov(Reg.ESI, Imm(0x500000))
    asm.mov(Reg.ECX, Imm(32))
    asm.xor(Reg.EAX, Reg.EAX)
    asm.label("loop")
    asm.push(Reg.ECX)
    asm.call("accum")
    asm.pop(Reg.ECX)
    asm.add(Reg.ESI, Imm(4))
    asm.dec(Reg.ECX)
    asm.jcc(Cond.NZ, "loop")
    asm.ret()
    asm.label("accum")
    asm.push(Reg.EBP)
    asm.mov(Reg.EBP, Reg.ESP)
    asm.mov(Reg.EDX, mem(Reg.ESI))
    asm.add(Reg.EAX, Reg.EDX)
    asm.pop(Reg.EBP)
    asm.ret()
    return asm
