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
    decoded = decode_trace(encode_trace(trace))
    assert decoded.name == trace.name
    assert decoded.records == trace.records
    # Register writes are plain (int, value) pairs, never Reg members.
    for records in (trace.records, decoded.records):
        for record in records:
            writes = record.reg_writes
            assert type(writes) is tuple
            assert all(
                type(pair) is tuple and len(pair) == 2 and type(pair[0]) is int
                for pair in writes
            )


#: SHA-256 of the decompressed ``encode_trace(build_workload(name, seed=1))``
#: payload.  These pin capture byte for byte — record content,
#: ``reg_writes`` order and the ``flags_after`` type — which figure digests
#: can miss.  Hashing the payload rather than the gzip stream keeps the pin
#: independent of the Python version and zlib build, which can change the
#: gzip header and deflate stream.
_ENCODED_SHA256 = {
    "bzip2": "f4d43391a435c51528696365d3e8e26e7b818da3ee36ad890828f775ae59919b",
    "crafty": "9a2d5cabc86d17a2f4d630321dff3fb75f2366e00134a47d6d5163b27bfe3311",
    "eon": "1fcf32cd0e121151498788e983ea7747d2f8613ec59486109785aac3fab10a68",
    "gzip": "2e382e653637d766a08dad1d7030d35768629629439e60d2ff4940b7341768a3",
    "parser": "e09c138c513c4e740af4e93a6437e1d17a5ec223004f5ed715c3023af332e98f",
    "twolf": "8f143e21dc47af295b11daf907101973ed5aa9fedf2c08f7f05a45ff55ee2813",
    "vortex": "38c262bb96d7861a99f43d06815866e033edac7c90520e8b12ea95e761f015c1",
    "access": "c1bfd347176931244443f4d9dd35d43557c1857b510080a3f412e4047ad83b16",
    "dream": "f18d336a1c25ac9238ebb0ee9a3e20d7a5594200cc42087a4d4a48483b87e8d1",
    "excel": "a77058fd1eece61d74965efe280a1e4f1d86f9986fd57f5ca2d159b2e5b1e385",
    "lotus": "548aa4fbda4099b9c186b9f63a4fdc91519fac66a06121f1da3a44905637c6a7",
    "photo": "ff9f6679482d009fb5b75f49bfbd9fde217b5933969508c760bb8ffa43a4aec7",
    "power": "066926e931c0e0c62bfdcf01dc34f34f1f500ed2c897aa71d9e17495cb2c4abf",
    "sound": "dc821345e7c5bba0a78b6fa3909911dde15d31cfcec414bb8bda58cdc565fa2e",
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
    decoded = decode_trace(encode_trace(trace)).records
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


def test_bad_register_code_rejected():
    instr = _instruction(0x1000)
    record = TraceRecord(0x1000, instr, 0x1003, ((int(Reg.EAX), 1),))
    raw = bytearray(gzip.decompress(encode_trace(DynamicTrace([record]))))
    # The record ends: B reg | q value | B n_mem_ops | B branch.
    assert raw[-11] == Reg.EAX
    raw[-11] = 8
    offset = len(raw) - 11
    with pytest.raises(
        TraceFileError,
        match=f"corrupt record 0: register code 8 at offset {offset} is outside 0-7",
    ):
        decode_trace(gzip.compress(bytes(raw)))


def test_truncated_payload_rejected(matrix):
    trace = matrix.trace("power")
    raw = gzip.decompress(encode_trace(trace))
    with pytest.raises(TraceFileError, match="truncated in record"):
        decode_trace(gzip.compress(raw[: len(raw) // 2]))


def test_every_cut_reads_as_truncated():
    # A cut anywhere past the header is truncation, never a "corrupt"
    # byte: only bytes inside the payload may be reported as corrupt.
    instr = _instruction(0x1000)
    records = [
        TraceRecord(
            0x1000, instr, 0x1003, ((int(Reg.EAX), 1), (int(Reg.EDI), 2)), 0x44,
            (MemOp(False, 0x2000, 4, 7),), True,
        ),
        TraceRecord(0x1000, instr, 0x1003, ((int(Reg.EDX), 3),)),
    ]
    raw = gzip.decompress(encode_trace(DynamicTrace(records)))
    for cut in range(6, len(raw)):
        with pytest.raises(TraceFileError, match="truncated"):
            decode_trace(gzip.compress(raw[:cut]))


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
                reg_writes=tuple(
                    (r, draw(_VALUES))
                    for r in draw(st.sets(st.integers(0, 7), max_size=3))
                ),
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
    decoded = decode_trace(encode_trace(trace))
    assert decoded.records == records
    assert decoded.name == "prop"
