"""Binary trace codec: the on-disk form of captured traces.

The artifact store caches every captured :class:`DynamicTrace`, so the
format has to be small and quick to parse.  Records are packed with
:mod:`struct` and compressed with :mod:`gzip`; decoding reproduces the
trace exactly (round-trip tested over all 14 workloads in
``tests/artifacts/test_codec.py``).

Layout (after gzip decompression)::

    magic 'RUTB' | u16 version | str name | u32 n_instructions
    per instruction:
        q address | H length | str mnemonic | str cond ('' = none)
        B n_operands  (operand: tag byte + payload, see _pack_operand)
        B n_label_targets (each: str name | q value)
    u32 n_records
    per record:
        q pc | q next_pc | B has_flags [| q flags]
        B n_reg_writes (each: B reg | q value)
        B n_mem_ops    (each: B is_store | q address | B size | q data)
        B branch (0 none, 1 not-taken, 2 taken)

Strings are ``H length + utf-8 bytes``.  A version bump makes old
entries decode to :class:`TraceVersionError`, which the artifact store
treats as a cache miss (recompute), never a crash.
"""

from __future__ import annotations

import gzip
import struct
import zlib

from repro.trace.record import MemOp, TraceRecord
from repro.trace.stream import DynamicTrace
from repro.x86.instructions import Cond, Imm, Instruction, Label, Mem, Mnemonic
from repro.x86.registers import Reg

MAGIC = b"RUTB"
CODEC_VERSION = 1

#: Compression level: 1 keeps encode fast; the struct packing already
#: removes most of the redundancy.
_GZIP_LEVEL = 1

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_HEAD = struct.Struct("<4sH")
_REC_HEAD = struct.Struct("<qq")
_REC_FLAGS = struct.Struct("<qqBq")  # pc, next_pc, has_flags=1, flags
_REG_WRITE = struct.Struct("<Bq")  # reg, value
_MEM_OP = struct.Struct("<BqBq")  # is_store, address, size, data

_OP_REG, _OP_IMM, _OP_LABEL, _OP_MEM = 0, 1, 2, 3


class TraceFileError(Exception):
    """Raised on malformed encoded traces."""


class TraceVersionError(TraceFileError):
    """Raised when an encoded trace's format version is not the supported one.

    Carries the ``found`` and ``supported`` versions plus the offending
    ``filename`` so callers (e.g. the artifact store, which treats a
    version mismatch as a cache miss and recomputes) can tell a stale
    format apart from genuine corruption.
    """

    def __init__(self, found: int, supported: int, filename: str | None = None):
        self.found = found
        self.supported = supported
        self.filename = filename or "<stream>"
        super().__init__(
            f"{self.filename}: unsupported trace format version {found} "
            f"(this reader supports version {supported})"
        )


class _Writer:
    def __init__(self) -> None:
        self.buf = bytearray()

    def raw(self, data: bytes) -> None:
        self.buf += data

    def u8(self, value: int) -> None:
        self.buf.append(value)

    def u16(self, value: int) -> None:
        self.buf += _U16.pack(value)

    def u32(self, value: int) -> None:
        self.buf += _U32.pack(value)

    def i64(self, value: int) -> None:
        self.buf += _I64.pack(value)

    def string(self, text: str) -> None:
        data = text.encode("utf-8")
        self.buf += _U16.pack(len(data))
        self.buf += data


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise TraceFileError("binary trace truncated")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def i64(self) -> int:
        return _I64.unpack(self.take(8))[0]

    def string(self) -> str:
        return self.take(self.u16()).decode("utf-8")


# --------------------------------------------------------------- operands


def _pack_operand(w: _Writer, operand) -> None:
    if isinstance(operand, Reg):
        w.u8(_OP_REG)
        w.u8(int(operand))
    elif isinstance(operand, Imm):
        w.u8(_OP_IMM)
        w.i64(operand.value)
    elif isinstance(operand, Label):
        w.u8(_OP_LABEL)
        w.string(operand.name)
    elif isinstance(operand, Mem):
        w.u8(_OP_MEM)
        w.u8(0 if operand.base is None else int(operand.base) + 1)
        w.u8(0 if operand.index is None else int(operand.index) + 1)
        w.u8(operand.scale)
        w.i64(operand.disp)
        w.u8(operand.size)
    else:
        raise TraceFileError(f"cannot encode operand {operand!r}")


def _unpack_operand(r: _Reader):
    tag = r.u8()
    if tag == _OP_REG:
        return Reg(r.u8())
    if tag == _OP_IMM:
        return Imm(r.i64())
    if tag == _OP_LABEL:
        return Label(r.string())
    if tag == _OP_MEM:
        base, index = r.u8(), r.u8()
        scale = r.u8()
        disp = r.i64()
        size = r.u8()
        return Mem(
            base=Reg(base - 1) if base else None,
            index=Reg(index - 1) if index else None,
            scale=scale,
            disp=disp,
            size=size,
        )
    raise TraceFileError(f"unknown operand tag {tag}")


# --------------------------------------------------------------- encoding


def encode_trace(trace: DynamicTrace) -> bytes:
    """Serialize a trace to gzip-compressed binary bytes."""
    w = _Writer()
    w.raw(_HEAD.pack(MAGIC, CODEC_VERSION))
    w.string(trace.name)

    instructions: dict[int, Instruction] = {}
    for record in trace:
        instructions.setdefault(record.pc, record.instruction)

    w.u32(len(instructions))
    for address in sorted(instructions):
        instr = instructions[address]
        w.i64(address)
        w.u16(instr.length)
        w.string(instr.mnemonic.value)
        w.string(instr.cond.value if instr.cond else "")
        w.u8(len(instr.operands))
        for operand in instr.operands:
            _pack_operand(w, operand)
        w.u8(len(instr.label_targets))
        for name in sorted(instr.label_targets):
            w.string(name)
            w.i64(instr.label_targets[name])

    w.u32(len(trace))
    # The record loop is the hot path for cold captures: append straight
    # into the one buffer with bound packers, mirroring decode_trace.
    buf = w.buf
    append = buf.append
    rec_flags_pack = _REC_FLAGS.pack
    rec_head_pack = _REC_HEAD.pack
    reg_write_pack = _REG_WRITE.pack
    mem_op_pack = _MEM_OP.pack
    for record in trace:
        flags = record.flags_after
        if flags is None:
            buf += rec_head_pack(record.pc, record.next_pc)
            append(0)
        else:
            buf += rec_flags_pack(record.pc, record.next_pc, 1, flags)
        reg_writes = record.reg_writes
        append(len(reg_writes))
        for reg, value in reg_writes.items():
            buf += reg_write_pack(reg, value)
        mem_ops = record.mem_ops
        append(len(mem_ops))
        for mem_op in mem_ops:
            buf += mem_op_pack(
                mem_op.is_store, mem_op.address, mem_op.size, mem_op.data
            )
        branch_taken = record.branch_taken
        append(0 if branch_taken is None else 2 if branch_taken else 1)
    # mtime=0 keeps the gzip header time-free: equal traces encode to
    # equal bytes, so content digests of encoded traces are stable.
    return gzip.compress(buf, compresslevel=_GZIP_LEVEL, mtime=0)


# --------------------------------------------------------------- decoding


def decode_trace(data: bytes, filename: str | None = None) -> DynamicTrace:
    """Deserialize bytes produced by :func:`encode_trace`.

    Every failure mode raises :class:`TraceFileError` (or its subclass
    :class:`TraceVersionError`, which names the file and both versions) —
    never a bare ``struct.error``, ``ValueError``, or decode exception —
    so the artifact store can treat any bad payload as a structured
    miss.
    """
    where = filename or "<bytes>"
    try:
        raw = gzip.decompress(data)
    except (OSError, EOFError, zlib.error) as exc:
        raise TraceFileError(f"{where}: bad gzip payload: {exc}") from exc
    r = _Reader(raw)
    if len(raw) < _HEAD.size:
        raise TraceFileError(f"{where}: binary trace truncated (no header)")
    magic, version = _HEAD.unpack(r.take(_HEAD.size))
    if magic != MAGIC:
        raise TraceFileError(f"{where}: not a binary trace (bad magic)")
    if version != CODEC_VERSION:
        raise TraceVersionError(version, CODEC_VERSION, filename)

    instructions: dict[int, Instruction] = {}
    try:
        name = r.string()
        for _ in range(r.u32()):
            address = r.i64()
            length = r.u16()
            mnemonic = Mnemonic(r.string())
            cond_text = r.string()
            cond = Cond(cond_text) if cond_text else None
            operands = tuple(_unpack_operand(r) for _ in range(r.u8()))
            targets = {}
            for _ in range(r.u8()):
                target_name = r.string()
                targets[target_name] = r.i64()
            instr = Instruction(mnemonic=mnemonic, operands=operands, cond=cond)
            instr.address = address
            instr.length = length
            instr.label_targets = targets
            instructions[address] = instr
    except TraceFileError as exc:
        raise TraceFileError(f"{where}: {exc}") from exc
    except (ValueError, UnicodeDecodeError, struct.error) as exc:
        # Unknown mnemonic/cond/register/operand tag or mangled string
        # bytes: corrupt content, not a stale version.
        raise TraceFileError(
            f"{where}: corrupt instruction table: {type(exc).__name__}: {exc}"
        ) from exc

    # The record loop is the hot path for warm cache reads: unpack
    # directly from the buffer with a local offset instead of going
    # through _Reader's per-field method calls.
    try:
        record_count = r.u32()
    except TraceFileError as exc:
        raise TraceFileError(f"{where}: {exc}") from exc
    pos = r.pos
    end = len(raw)
    rec_head_unpack = _REC_HEAD.unpack_from
    i64_unpack = _I64.unpack_from
    mem_op_unpack = _MEM_OP.unpack_from
    mem_op_size = _MEM_OP.size
    records: list[TraceRecord] = []
    append = records.append
    try:
        for _ in range(record_count):
            pc, next_pc = rec_head_unpack(raw, pos)
            pos += 16
            if raw[pos]:
                flags = i64_unpack(raw, pos + 1)[0]
                pos += 9
            else:
                flags = None
                pos += 1
            reg_writes: dict[Reg, int] = {}
            for _ in range(raw[pos]):
                reg_writes[Reg(raw[pos + 1])] = i64_unpack(raw, pos + 2)[0]
                pos += 9
            pos += 1
            mem_ops = []
            for _ in range(raw[pos]):
                is_store, address, size, mem_data = mem_op_unpack(raw, pos + 1)
                mem_ops.append(
                    MemOp(
                        is_store=bool(is_store),
                        address=address,
                        size=size,
                        data=mem_data,
                    )
                )
                pos += mem_op_size
            pos += 1
            branch_byte = raw[pos]
            pos += 1
            branch_taken = None if branch_byte == 0 else branch_byte == 2
            append(
                TraceRecord(
                    pc=pc,
                    instruction=instructions[pc],
                    next_pc=next_pc,
                    reg_writes=reg_writes,
                    flags_after=flags,
                    mem_ops=tuple(mem_ops),
                    branch_taken=branch_taken,
                )
            )
    except (struct.error, IndexError, ValueError) as exc:
        raise TraceFileError(f"{where}: binary trace truncated: {exc}") from exc
    except KeyError as exc:
        raise TraceFileError(
            f"{where}: record references unknown pc {exc}"
        ) from None
    if pos != end:
        raise TraceFileError(
            f"{where}: binary trace has {end - pos} trailing bytes"
        )
    return DynamicTrace(records, name=name)


def roundtrip_binary(trace: DynamicTrace) -> DynamicTrace:
    """Encode and decode in memory (testing convenience)."""
    return decode_trace(encode_trace(trace))
