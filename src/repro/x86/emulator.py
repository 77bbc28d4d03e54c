"""Functional emulator for the x86 subset.

The emulator plays the role of the hardware that generated the paper's
trace files: it executes a :class:`~repro.x86.assembler.Program` and emits
one :class:`~repro.trace.record.TraceRecord` per retired instruction,
carrying register state changes and memory transactions (paper §5.1.1).

Each static instruction is compiled once per emulator, at its first
execution, into a *handler*: a closure whose operand accessors are
resolved (a register index, a masked immediate, or an effective-address
function), whose fall-through and label targets are precomputed, and
which knows the registers it writes and whether it writes flags.  A
handler executes one dynamic instance and returns its record.  ``step``
and ``run`` call the same handlers; they are the only copy of the x86
semantics.

Flag semantics follow IA-32 for the modeled flags (CF, ZF, SF, OF) with
two documented determinism choices: shifts clear OF, and IMUL sets ZF/SF
from the low result (IA-32 leaves them undefined; traces need a value).
The flags are held packed, as the EFLAGS-style word ``flags_word``
returns.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable

from repro.trace.record import MemOp, TraceRecord
from repro.x86.assembler import Program
from repro.x86.instructions import (
    Cond,
    Imm,
    Instruction,
    Label,
    Mem,
    Mnemonic,
    cond_holds,
)
from repro.x86.memory import Memory
from repro.x86.registers import (
    MASK32,
    NUM_REGS,
    Reg,
    pack_flags,
    to_signed,
    unpack_flags,
)

#: Jumping here terminates the program (workloads end with ``jmp``/``ret``
#: to this address).
EXIT_ADDRESS = 0xDEAD0000

#: Initial stack top (grows down).
DEFAULT_STACK_TOP = 0x00F0_0000

#: ESP at program entry: it points at the pushed exit address.
ENTRY_ESP = DEFAULT_STACK_TOP - 4

_ESP = int(Reg.ESP)
_SIGN = 0x8000_0000
_CF = pack_flags(True, False, False, False)
_ZF = pack_flags(False, True, False, False)
_SF = pack_flags(False, False, True, False)
_OF = pack_flags(False, False, False, True)

#: ``_TAKEN[cond][flags_word]``: whether ``cond`` holds, for every word
#: the four modeled flags can pack to.
_TAKEN = {
    cond: {
        pack_flags(cf, zf, sf, of): cond_holds(cond, cf=cf, zf=zf, sf=sf, of=of)
        for cf, zf, sf, of in itertools.product((False, True), repeat=4)
    }
    for cond in Cond
}

Handler = Callable[[], TraceRecord]


class EmulationError(Exception):
    """Raised for faults: bad fetch, division by zero, etc."""


class Emulator:
    """Executes a program instruction-by-instruction, recording a trace."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.memory = Memory()
        self.regs: list[int] = [0] * NUM_REGS
        #: the packed flags word, in a one-element list the handlers
        #: share: a handler that referenced the emulator itself would make
        #: every emulator a reference cycle, freed only by a full collection.
        self._flags = [0]
        self.pc = program.entry
        self.instruction_count = 0
        #: one compiled handler per static instruction, keyed by address;
        #: per emulator, so programs sharing addresses never share one.
        self._handlers: dict[int, Handler] = {}
        for address, blob in program.data.items():
            self.memory.write_bytes(address, blob)
        # Entering EXIT_ADDRESS via RET requires a pushed return address.
        self.regs[Reg.ESP] = ENTRY_ESP
        self.memory.write(ENTRY_ESP, EXIT_ADDRESS, 4)

    # ------------------------------------------------------------ state

    def flags_word(self) -> int:
        """The current flags as an EFLAGS-style word."""
        return self._flags[0]

    cf = property(lambda self: unpack_flags(self._flags[0])[0])
    zf = property(lambda self: unpack_flags(self._flags[0])[1])
    sf = property(lambda self: unpack_flags(self._flags[0])[2])
    of = property(lambda self: unpack_flags(self._flags[0])[3])

    @property
    def halted(self) -> bool:
        return self.pc == EXIT_ADDRESS

    # --------------------------------------------------------- execution

    def step(self) -> TraceRecord:
        """Execute one instruction and return its trace record."""
        pc = self.pc
        record = (self._handlers.get(pc) or self._compile(pc))()
        self.pc = record.next_pc
        self.instruction_count += 1
        return record

    def run(self, max_instructions: int = 1_000_000) -> list[TraceRecord]:
        """Run until exit or the instruction budget; return the trace."""
        trace: list[TraceRecord] = []
        append = trace.append
        handlers = self._handlers
        pc = self.pc
        try:
            for _ in range(max_instructions):
                if pc == EXIT_ADDRESS:
                    break
                record = (handlers.get(pc) or self._compile(pc))()
                append(record)
                pc = record.next_pc
        finally:
            self.pc = pc
            self.instruction_count += len(trace)
        return trace

    def _compile(self, pc: int) -> Handler:
        """Build, cache and return the handler of the instruction at ``pc``."""
        if pc == EXIT_ADDRESS:
            raise EmulationError("program has exited")
        try:
            instr = self.program.at(pc)
        except KeyError as exc:
            raise EmulationError(f"no instruction at {pc:#x}") from exc
        transfer = _TRANSFERS.get(instr.mnemonic)
        if transfer is not None:
            handler = transfer(self, instr)
        else:
            parts = _DATA_OPS[instr.mnemonic](self, instr)
            handler = _fall_through(self, instr, *parts)
        self._handlers[pc] = handler
        return handler


# ------------------------------------------------------------ operands


def _address(regs: list[int], operand: Mem) -> Callable[[], int]:
    """Effective-address function of a memory operand."""
    base, index, scale, disp = operand.base, operand.index, operand.scale, operand.disp
    if index is None:
        if base is None:
            address = disp & MASK32
            return lambda: address
        b = int(base)
        return lambda: (regs[b] + disp) & MASK32
    i = int(index)
    if base is None:
        return lambda: (regs[i] * scale + disp) & MASK32
    b = int(base)
    return lambda: (regs[b] + regs[i] * scale + disp) & MASK32


def _reader(emu: Emulator, operand, mem_ops: list[MemOp]) -> Callable[[], int]:
    """Value accessor; a memory read logs its load into ``mem_ops``."""
    regs = emu.regs
    if isinstance(operand, Reg):
        r = int(operand)
        return lambda: regs[r]
    if isinstance(operand, Imm):
        value = operand.value & MASK32
        return lambda: value
    if isinstance(operand, Mem):
        address, size = _address(regs, operand), operand.size
        read, log = emu.memory.read, mem_ops.append

        def read_mem() -> int:
            at = address()
            value = read(at, size)
            log(MemOp(False, at, size, value))
            return value

        return read_mem

    def unreadable() -> int:
        raise EmulationError(f"cannot read operand {operand!r}")

    return unreadable


def _writer(emu: Emulator, operand, mem_ops: list[MemOp]) -> Callable[[int], None]:
    """Store accessor for a 32-bit value; a memory write logs its store."""
    regs = emu.regs
    if isinstance(operand, Reg):
        r = int(operand)

        def write_reg(value: int) -> None:
            regs[r] = value

        return write_reg
    if isinstance(operand, Mem):
        address, size = _address(regs, operand), operand.size
        mask = (1 << (8 * size)) - 1
        write, log = emu.memory.write, mem_ops.append

        def write_mem(value: int) -> None:
            at = address()
            stored = value & mask
            write(at, stored, size)
            log(MemOp(True, at, size, stored))

        return write_mem

    def unwritable(value: int) -> None:
        raise EmulationError(f"cannot write operand {operand!r}")

    return unwritable


def _target(
    emu: Emulator, instr: Instruction, mem_ops: list[MemOp]
) -> Callable[[], int]:
    """Control-transfer target accessor: a label resolves once, here."""
    operand = instr.operands[0]
    if isinstance(operand, Label):
        target = instr.label_targets[operand.name]
        return lambda: target
    return _reader(emu, operand, mem_ops)


def _dest(operand) -> tuple[Reg, ...]:
    return (operand,) if isinstance(operand, Reg) else ()


# ------------------------------------------------------ fall-through ops
#
# A data op's builder returns ``(sem, written, writes_flags, mem_ops)``:
# ``sem()`` executes one instance, ``written`` is the registers it
# architecturally writes (the value may be unchanged) and ``mem_ops`` the
# list its accessors log into.  ``_fall_through`` wraps it into a handler.


def _fall_through(
    emu: Emulator,
    instr: Instruction,
    sem: Callable[[], None],
    written: tuple[Reg, ...],
    writes_flags: bool,
    mem_ops: list[MemOp],
) -> Handler:
    """Handler for an instruction that continues at its fall-through.

    ``reg_writes`` holds a ``(register number, value)`` pair for every
    written register: the changed ones in register order, then the
    unchanged ones in written order.  ``flags_after`` is the packed flags
    when the instruction writes flags (changed or not), else None.
    """
    regs, flags_cell, clear = emu.regs, emu._flags, mem_ops.clear
    pc = instr.address
    next_pc = pc + instr.length
    numbers = tuple(int(reg) for reg in written)
    if len(numbers) > 1:

        def multi() -> TraceRecord:
            clear()
            before = [regs[r] for r in numbers]
            sem()
            changed = [(r, regs[r]) for r, old in zip(numbers, before) if regs[r] != old]
            kept = [(r, old) for r, old in zip(numbers, before) if regs[r] == old]
            writes = tuple(sorted(changed) + kept)
            flags = flags_cell[0] if writes_flags else None
            return TraceRecord(pc, instr, next_pc, writes, flags, tuple(mem_ops), None)

        return multi
    r = numbers[0] if numbers else None

    def handler() -> TraceRecord:
        clear()
        sem()
        writes = () if r is None else ((r, regs[r]),)
        flags = flags_cell[0] if writes_flags else None
        return TraceRecord(pc, instr, next_pc, writes, flags, tuple(mem_ops), None)

    return handler


def _zs(result: int) -> int:
    """ZF and SF of a 32-bit result."""
    return _ZF if not result else _SF if result & _SIGN else 0


def _add(a: int, b: int, flags: int) -> tuple[int, int]:
    full = a + b
    result = full & MASK32
    of = _OF if ~(a ^ b) & (a ^ result) & _SIGN else 0
    return result, (_CF if full > MASK32 else 0) | _zs(result) | of


def _sub(a: int, b: int, flags: int) -> tuple[int, int]:
    result = (a - b) & MASK32
    of = _OF if (a ^ b) & (a ^ result) & _SIGN else 0
    return result, (_CF if a < b else 0) | _zs(result) | of


def _and(a: int, b: int, flags: int) -> tuple[int, int]:
    result = a & b
    return result, _zs(result)


def _or(a: int, b: int, flags: int) -> tuple[int, int]:
    result = a | b
    return result, _zs(result)


def _xor(a: int, b: int, flags: int) -> tuple[int, int]:
    result = a ^ b
    return result, _zs(result)


def _imul(a: int, b: int, flags: int) -> tuple[int, int]:
    full = to_signed(a) * to_signed(b)
    result = full & MASK32
    overflow = _CF | _OF if to_signed(result) != full else 0
    return result, overflow | _zs(result)  # ZF/SF: deterministic choice


# Shifts with a zero count write nothing and leave the flags alone; OF is
# cleared (deterministic choice; IA-32 defines it for count 1 only).
def _shl(a: int, b: int, flags: int) -> tuple[int | None, int]:
    count = b & 0x1F
    if not count:
        return None, flags
    result = (a << count) & MASK32
    return result, (_CF if (a >> (32 - count)) & 1 else 0) | _zs(result)


def _shr(a: int, b: int, flags: int) -> tuple[int | None, int]:
    count = b & 0x1F
    if not count:
        return None, flags
    result = a >> count
    return result, (_CF if (a >> (count - 1)) & 1 else 0) | _zs(result)


def _sar(a: int, b: int, flags: int) -> tuple[int | None, int]:
    count = b & 0x1F
    if not count:
        return None, flags
    signed = to_signed(a)
    result = (signed >> count) & MASK32
    return result, (_CF if (signed >> (count - 1)) & 1 else 0) | _zs(result)


def _inc(a: int, b: int, flags: int) -> tuple[int, int]:
    result = (a + 1) & MASK32
    of = _OF if result == _SIGN else 0
    return result, (flags & _CF) | _zs(result) | of  # CF is preserved


def _dec(a: int, b: int, flags: int) -> tuple[int, int]:
    result = (a - 1) & MASK32
    of = _OF if result == _SIGN - 1 else 0
    return result, (flags & _CF) | _zs(result) | of  # CF is preserved


def _neg(a: int, b: int, flags: int) -> tuple[int, int]:
    result = -a & MASK32
    of = _OF if a == _SIGN else 0
    return result, (_CF if a else 0) | _zs(result) | of


def _not(a: int, b: int, flags: int) -> tuple[int, int]:
    return ~a & MASK32, flags  # NOT leaves the flags alone


#: ``mnemonic: (op, writes its destination, writes flags)``.  An op maps
#: ``(a, b, flags)`` to ``(result, flags)``; a None result writes nothing.
_ALU: dict[Mnemonic, tuple[Callable, bool, bool]] = {
    Mnemonic.ADD: (_add, True, True),
    Mnemonic.SUB: (_sub, True, True),
    Mnemonic.CMP: (_sub, False, True),
    Mnemonic.AND: (_and, True, True),
    Mnemonic.TEST: (_and, False, True),
    Mnemonic.OR: (_or, True, True),
    Mnemonic.XOR: (_xor, True, True),
    Mnemonic.IMUL: (_imul, True, True),
    Mnemonic.SHL: (_shl, True, True),
    Mnemonic.SHR: (_shr, True, True),
    Mnemonic.SAR: (_sar, True, True),
    Mnemonic.INC: (_inc, True, True),
    Mnemonic.DEC: (_dec, True, True),
    Mnemonic.NEG: (_neg, True, True),
    Mnemonic.NOT: (_not, True, False),
}


def _alu(emu: Emulator, instr: Instruction):
    op, writes_dest, writes_flags = _ALU[instr.mnemonic]
    flags = emu._flags
    mem_ops: list[MemOp] = []
    dst = instr.operands[0]
    read_dst = _reader(emu, dst, mem_ops)
    if len(instr.operands) > 1:
        read_src = _reader(emu, instr.operands[1], mem_ops)
    else:
        read_src = int  # unary: int() is 0
    if not writes_dest:

        def compare() -> None:
            flags[0] = op(read_dst(), read_src(), flags[0])[1]

        return compare, (), writes_flags, mem_ops
    write = _writer(emu, dst, mem_ops)

    def alu() -> None:
        result, flags[0] = op(read_dst(), read_src(), flags[0])
        if result is not None:
            write(result)

    return alu, _dest(dst), writes_flags, mem_ops


def _mov(emu: Emulator, instr: Instruction):
    mem_ops: list[MemOp] = []
    dst, src = instr.operands
    read = _reader(emu, src, mem_ops)
    if isinstance(dst, Reg):
        regs, r = emu.regs, int(dst)

        def mov_reg() -> None:
            regs[r] = read()

        return mov_reg, (dst,), False, mem_ops
    write = _writer(emu, dst, mem_ops)
    return (lambda: write(read())), (), False, mem_ops


def _extend(emu: Emulator, instr: Instruction):
    """MOVZX/MOVSX: a 1-, 2- or 4-byte load, zero- or sign-extended."""
    dst, src = instr.operands
    if not isinstance(src, Mem):
        # Keeps the emulator honest about the same contract the uop
        # translator enforces (LOAD with extension).
        raise EmulationError(
            f"{instr.mnemonic.name} requires a memory source, got {src!r}"
        )
    mem_ops: list[MemOp] = []
    read = _reader(emu, src, mem_ops)
    write = _writer(emu, dst, mem_ops)
    bits = 8 * src.size
    if instr.mnemonic is Mnemonic.MOVZX:
        sem = lambda: write(read())
    else:
        sem = lambda: write(to_signed(read(), bits) & MASK32)
    return sem, _dest(dst), False, mem_ops


def _lea(emu: Emulator, instr: Instruction):
    dst, src = instr.operands
    mem_ops: list[MemOp] = []
    address = _address(emu.regs, src)  # no memory access
    write = _writer(emu, dst, mem_ops)
    return (lambda: write(address())), _dest(dst), False, mem_ops


def _idiv(emu: Emulator, instr: Instruction):
    mem_ops: list[MemOp] = []
    read = _reader(emu, instr.operands[0], mem_ops)
    regs = emu.regs
    eax, edx = int(Reg.EAX), int(Reg.EDX)
    where = f"at {instr.address:#x}"

    def idiv() -> None:
        divisor = to_signed(read())
        if divisor == 0:
            raise EmulationError(f"division by zero {where}")
        dividend = to_signed((regs[edx] << 32) | regs[eax], bits=64)
        quotient = abs(dividend) // abs(divisor)  # exact, toward zero
        if (dividend < 0) != (divisor < 0):
            quotient = -quotient
        if not -0x8000_0000 <= quotient <= 0x7FFF_FFFF:
            raise EmulationError(f"quotient overflow (#DE) {where}")
        regs[eax] = quotient & MASK32
        regs[edx] = (dividend - quotient * divisor) & MASK32

    return idiv, (Reg.EAX, Reg.EDX), False, mem_ops


def _cdq(emu: Emulator, instr: Instruction):
    regs = emu.regs
    eax, edx = int(Reg.EAX), int(Reg.EDX)

    def cdq() -> None:
        regs[edx] = MASK32 if regs[eax] & _SIGN else 0

    return cdq, (Reg.EDX,), False, []


def _nop(emu: Emulator, instr: Instruction):
    return (lambda: None), (), False, []


def _push(emu: Emulator, instr: Instruction):
    mem_ops: list[MemOp] = []
    read = _reader(emu, instr.operands[0], mem_ops)
    regs, write, log = emu.regs, emu.memory.write, mem_ops.append

    def push() -> None:
        value = read()
        esp = (regs[_ESP] - 4) & MASK32
        write(esp, value, 4)
        log(MemOp(True, esp, 4, value))
        regs[_ESP] = esp

    return push, (Reg.ESP,), False, mem_ops


def _pop(emu: Emulator, instr: Instruction):
    mem_ops: list[MemOp] = []
    dst = instr.operands[0]
    store = _writer(emu, dst, mem_ops)
    regs, read, log = emu.regs, emu.memory.read, mem_ops.append

    def pop() -> None:
        esp = regs[_ESP]
        value = read(esp, 4)
        log(MemOp(False, esp, 4, value))
        regs[_ESP] = (esp + 4) & MASK32
        store(value)

    return pop, tuple(dict.fromkeys((Reg.ESP, *_dest(dst)))), False, mem_ops


_DATA_OPS = {
    **dict.fromkeys(_ALU, _alu),
    Mnemonic.MOV: _mov,
    Mnemonic.MOVZX: _extend,
    Mnemonic.MOVSX: _extend,
    Mnemonic.LEA: _lea,
    Mnemonic.IDIV: _idiv,
    Mnemonic.CDQ: _cdq,
    Mnemonic.NOP: _nop,
    Mnemonic.PUSH: _push,
    Mnemonic.POP: _pop,
}


# ---------------------------------------------------- control transfers


def _jmp(emu: Emulator, instr: Instruction) -> Handler:
    mem_ops: list[MemOp] = []
    target = _target(emu, instr, mem_ops)
    pc, clear = instr.address, mem_ops.clear

    def jmp() -> TraceRecord:
        clear()
        return TraceRecord(pc, instr, target(), (), None, tuple(mem_ops), None)

    return jmp


def _jcc(emu: Emulator, instr: Instruction) -> Handler:
    mem_ops: list[MemOp] = []
    target = _target(emu, instr, mem_ops)
    taken, flags = _TAKEN[instr.cond], emu._flags
    pc, clear = instr.address, mem_ops.clear
    next_pc = pc + instr.length

    def jcc() -> TraceRecord:
        if taken[flags[0]]:
            clear()
            return TraceRecord(pc, instr, target(), (), None, tuple(mem_ops), True)
        return TraceRecord(pc, instr, next_pc, (), None, (), False)

    return jcc


def _call(emu: Emulator, instr: Instruction) -> Handler:
    mem_ops: list[MemOp] = []
    target = _target(emu, instr, mem_ops)
    regs, write, log = emu.regs, emu.memory.write, mem_ops.append
    pc, clear = instr.address, mem_ops.clear
    retaddr = pc + instr.length

    def call() -> TraceRecord:
        clear()
        next_pc = target()
        esp = (regs[_ESP] - 4) & MASK32
        write(esp, retaddr, 4)
        log(MemOp(True, esp, 4, retaddr))
        regs[_ESP] = esp
        return TraceRecord(
            pc, instr, next_pc, ((_ESP, esp),), None, tuple(mem_ops), None
        )

    return call


def _ret(emu: Emulator, instr: Instruction) -> Handler:
    regs, read = emu.regs, emu.memory.read
    pc = instr.address

    def ret() -> TraceRecord:
        esp = regs[_ESP]
        next_pc = read(esp, 4)
        regs[_ESP] = new_esp = (esp + 4) & MASK32
        load = (MemOp(False, esp, 4, next_pc),)
        return TraceRecord(pc, instr, next_pc, ((_ESP, new_esp),), None, load, None)

    return ret


_TRANSFERS = {
    Mnemonic.JMP: _jmp,
    Mnemonic.JCC: _jcc,
    Mnemonic.CALL: _call,
    Mnemonic.RET: _ret,
}
