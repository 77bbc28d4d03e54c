"""Binary trace codec: exact round trips and pinned encodings.

The codec must reproduce every captured workload trace exactly — same
records, same instructions, same name.  A hypothesis property explores
the record space (flags, register writes, memory ops, branch info)
beyond what the workloads happen to exercise.
"""

from __future__ import annotations

import gzip
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.artifacts.codec import (
    TraceFileError,
    TraceVersionError,
    decode_trace,
    encode_trace,
    roundtrip_binary,
)
from repro.harness.figures import PAPER_ORDER
from repro.trace.record import MemOp, TraceRecord
from repro.trace.stream import DynamicTrace
from repro.x86 import Assembler, Cond, Emulator
from repro.x86.instructions import Imm, Instruction, Mem, Mnemonic
from repro.x86.registers import Reg

@pytest.mark.parametrize("name", PAPER_ORDER)
def test_binary_roundtrip_all_workloads(matrix, name):
    trace = matrix.trace(name)
    decoded = roundtrip_binary(trace)
    assert decoded.name == trace.name
    assert decoded.records == trace.records


#: SHA-256 of the decompressed ``encode_trace(build_workload(name, seed=1))``
#: payload.  These pin capture byte for byte — record content,
#: ``reg_writes`` order and the ``flags_after`` type — which figure digests
#: can miss.  Hashing the payload rather than the gzip stream keeps the pin
#: independent of the Python version and zlib build, which can change the
#: gzip header and deflate stream.
_ENCODED_SHA256 = {
    "vortex": "38c262bb96d7861a99f43d06815866e033edac7c90520e8b12ea95e761f015c1",
    "power": "066926e931c0e0c62bfdcf01dc34f34f1f500ed2c897aa71d9e17495cb2c4abf",
    "excel": "a77058fd1eece61d74965efe280a1e4f1d86f9986fd57f5ca2d159b2e5b1e385",
}


@pytest.mark.parametrize("name", sorted(_ENCODED_SHA256))
def test_encoded_workload_digest_pinned(matrix, name):
    payload = gzip.decompress(encode_trace(matrix.trace(name)))
    digest = hashlib.sha256(payload).hexdigest()
    assert digest == _ENCODED_SHA256[name]


def test_decoded_instructions_carry_is_branch():
    """``is_branch`` is left out of ``==``, so check it after decoding."""
    asm = Assembler()
    asm.mov(Reg.ECX, Imm(2))
    asm.label("loop")
    asm.call("leaf")
    asm.dec(Reg.ECX)
    asm.jcc(Cond.NZ, "loop")
    asm.jmp("done")
    asm.label("leaf")
    asm.ret()
    asm.label("done")
    asm.ret()
    trace = DynamicTrace(Emulator(asm.assemble()).run())
    decoded = roundtrip_binary(trace).records
    branches = {Mnemonic.JCC, Mnemonic.JMP, Mnemonic.CALL, Mnemonic.RET}
    seen = {r.instruction.mnemonic: r.instruction.is_branch for r in decoded}
    assert seen == {
        Mnemonic.MOV: False,
        Mnemonic.DEC: False,
        **{mnemonic: True for mnemonic in branches},
    }


def test_bad_magic_rejected():
    with pytest.raises(TraceFileError, match="magic"):
        decode_trace(gzip.compress(b"NOPE" + b"\x00" * 16))


def test_not_gzip_rejected():
    with pytest.raises(TraceFileError, match="gzip"):
        decode_trace(b"plainly not compressed")


def test_version_mismatch_raises_trace_version_error():
    import struct

    payload = gzip.compress(struct.pack("<4sH", b"RUTB", 999) + b"\x00" * 8)
    with pytest.raises(TraceVersionError) as excinfo:
        decode_trace(payload, filename="cached.art")
    assert excinfo.value.found == 999
    assert excinfo.value.supported == 1
    assert "cached.art" in str(excinfo.value)
    assert "999" in str(excinfo.value)


def test_truncated_payload_rejected(matrix):
    trace = matrix.trace("power")
    raw = gzip.decompress(encode_trace(trace))
    with pytest.raises(TraceFileError, match="truncated"):
        decode_trace(gzip.compress(raw[: len(raw) // 2]))


# ----------------------------------------------------- hypothesis property

_VALUES = st.integers(min_value=-(2**31), max_value=2**32 - 1)
_ADDRS = st.integers(min_value=0, max_value=2**32 - 1)


def _instruction(pc: int) -> Instruction:
    # Realistic-enough static side; record payloads vary via hypothesis.
    instr = Instruction(
        mnemonic=Mnemonic.MOV,
        operands=(Reg.EAX, Mem(base=Reg.ESI, disp=pc % 128, size=4)),
    )
    instr.address = pc
    instr.length = 3
    return instr


_mem_ops = st.lists(
    st.builds(
        MemOp,
        is_store=st.booleans(),
        address=_ADDRS,
        size=st.sampled_from([1, 2, 4]),
        data=_VALUES,
    ),
    max_size=3,
)


@st.composite
def _records(draw):
    pcs = [0x1000 + 3 * i for i in range(draw(st.integers(1, 12)))]
    instructions = {pc: _instruction(pc) for pc in pcs}
    records = []
    for _ in range(draw(st.integers(1, 25))):
        pc = draw(st.sampled_from(pcs))
        records.append(
            TraceRecord(
                pc=pc,
                instruction=instructions[pc],
                next_pc=draw(_ADDRS),
                reg_writes={
                    Reg(r): draw(_VALUES)
                    for r in draw(st.sets(st.integers(0, 7), max_size=3))
                },
                flags_after=draw(st.none() | st.integers(0, 2**16)),
                mem_ops=tuple(draw(_mem_ops)),
                branch_taken=draw(st.none() | st.booleans()),
            )
        )
    return records


@given(_records())
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(records):
    trace = DynamicTrace(records, name="prop")
    decoded = roundtrip_binary(trace)
    assert decoded.records == records
    assert decoded.name == "prop"
