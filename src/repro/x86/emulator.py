"""Functional emulator for the x86 subset.

The emulator plays the role of the hardware that generated the paper's
trace files: it executes a :class:`~repro.x86.assembler.Program` and emits
one :class:`~repro.trace.record.TraceRecord` per retired instruction,
carrying register state changes and memory transactions (paper §5.1.1).

Flag semantics follow IA-32 for the modeled flags (CF, ZF, SF, OF) with
two documented determinism choices: shifts clear OF, and IMUL sets ZF/SF
from the low result (IA-32 leaves them undefined; traces need a value).
"""

from __future__ import annotations

from repro.trace.record import MemOp, TraceRecord
from repro.x86.assembler import Program
from repro.x86.instructions import (
    Imm,
    Instruction,
    Label,
    Mem,
    Mnemonic,
    cond_holds,
)
from repro.x86.memory import Memory
from repro.x86.registers import ALL_REGS, MASK32, NUM_REGS, Reg, pack_flags, to_signed

#: Jumping here terminates the program (workloads end with ``jmp``/``ret``
#: to this address).
EXIT_ADDRESS = 0xDEAD0000

#: Default initial stack top (grows down).
DEFAULT_STACK_TOP = 0x00F0_0000


class EmulationError(Exception):
    """Raised for faults: bad fetch, division by zero, etc."""


class Emulator:
    """Executes a program instruction-by-instruction, recording a trace."""

    def __init__(self, program: Program, stack_top: int = DEFAULT_STACK_TOP) -> None:
        self.program = program
        self.memory = Memory()
        self.regs: list[int] = [0] * NUM_REGS
        self.cf = self.zf = self.sf = self.of = False
        self.pc = program.entry
        self.instruction_count = 0
        # Static facts per instruction address, derived on first execution
        # (like MicroOpInjector._flows): (written registers, writes flags).
        self._predecoded: dict[int, tuple[tuple[Reg, ...], bool]] = {}
        self.regs[Reg.ESP] = stack_top
        for address, blob in program.data.items():
            self.memory.write_bytes(address, blob)
        # Entering EXIT_ADDRESS via RET requires a pushed return address.
        self._push_value(EXIT_ADDRESS)

    # ------------------------------------------------------------ helpers

    def _push_value(self, value: int) -> None:
        self.regs[Reg.ESP] = (self.regs[Reg.ESP] - 4) & MASK32
        self.memory.write(self.regs[Reg.ESP], value, 4)

    def flags_word(self) -> int:
        """Pack the current flags into an EFLAGS-style word."""
        return pack_flags(self.cf, self.zf, self.sf, self.of)

    def reg_snapshot(self) -> tuple[int, ...]:
        """Copy of the architectural register file."""
        return tuple(self.regs)

    def mem_address(self, operand: Mem) -> int:
        """Effective address of a memory operand under current registers."""
        address = operand.disp
        if operand.base is not None:
            address += self.regs[operand.base]
        if operand.index is not None:
            address += self.regs[operand.index] * operand.scale
        return address & MASK32

    def _set_zf_sf(self, result: int) -> None:
        self.zf = result == 0
        self.sf = bool(result & 0x8000_0000)

    # --------------------------------------------------------------- step

    @property
    def halted(self) -> bool:
        return self.pc == EXIT_ADDRESS

    def step(self) -> TraceRecord:
        """Execute one instruction and return its trace record."""
        pc = self.pc
        if pc == EXIT_ADDRESS:
            raise EmulationError("program has exited")
        try:
            instr = self.program.at(pc)
        except KeyError as exc:
            raise EmulationError(f"no instruction at {pc:#x}") from exc

        address = instr.address
        regs = self.regs
        regs_before = regs[:]
        flags_before = self.flags_word()
        mem_ops: list[MemOp] = []
        self._mem_ops = mem_ops
        facts = self._predecoded.get(address)
        if facts is None:
            facts = (_written_regs(instr), _writes_flags(instr))
            self._predecoded[address] = facts
        written_regs, writes_flags = facts

        next_pc, branch_taken = self._execute(instr, address + instr.length)

        reg_writes = {
            reg: value
            for reg, value, before in zip(ALL_REGS, regs, regs_before)
            if value != before
        }
        # Instructions that rewrite a register with the same value still
        # architecturally write it; detect via the writes_reg set.
        for reg in written_regs:
            reg_writes.setdefault(reg, regs[reg])
        flags_after = self.flags_word()
        record = TraceRecord(
            pc=address,
            instruction=instr,
            next_pc=next_pc,
            reg_writes=reg_writes,
            flags_after=flags_after if writes_flags or flags_after != flags_before else None,
            mem_ops=tuple(mem_ops),
            branch_taken=branch_taken,
        )
        self.pc = next_pc
        self.instruction_count += 1
        return record

    def run(self, max_instructions: int = 1_000_000) -> list[TraceRecord]:
        """Run until exit or the instruction budget; return the trace."""
        trace: list[TraceRecord] = []
        append = trace.append
        step = self.step
        while not self.halted and len(trace) < max_instructions:
            append(step())
        return trace

    # ---------------------------------------------------------- operands

    def _read(self, operand, size_hint: int = 4) -> int:
        if isinstance(operand, Reg):
            return self.regs[operand]
        if isinstance(operand, Imm):
            return operand.value & MASK32
        if isinstance(operand, Mem):
            address = self.mem_address(operand)
            value = self.memory.read(address, operand.size)
            self._mem_ops.append(
                MemOp(is_store=False, address=address, size=operand.size, data=value)
            )
            return value
        raise EmulationError(f"cannot read operand {operand!r}")

    def _write(self, operand, value: int) -> None:
        value &= MASK32
        if isinstance(operand, Reg):
            self.regs[operand] = value
            return
        if isinstance(operand, Mem):
            address = self.mem_address(operand)
            stored = value & ((1 << (8 * operand.size)) - 1)
            self.memory.write(address, stored, operand.size)
            self._mem_ops.append(
                MemOp(is_store=True, address=address, size=operand.size, data=stored)
            )
            return
        raise EmulationError(f"cannot write operand {operand!r}")

    def _target(self, instr: Instruction, operand) -> int:
        if isinstance(operand, Label):
            return instr.label_targets[operand.name]
        return self._read(operand)

    # ---------------------------------------------------------- execute

    def _execute(self, instr: Instruction, next_pc: int) -> tuple[int, bool | None]:
        mnem = instr.mnemonic
        ops = instr.operands
        branch_taken: bool | None = None

        if mnem is Mnemonic.NOP:
            pass
        elif mnem is Mnemonic.MOV:
            self._write(ops[0], self._read(ops[1]))
        elif mnem in (Mnemonic.MOVZX, Mnemonic.MOVSX):
            src = ops[1]
            if not isinstance(src, Mem):
                # Keeps the emulator honest about the same contract the
                # uop translator enforces (LOAD with extension).
                raise EmulationError(
                    f"{mnem.name} requires a memory source, got {src!r}"
                )
            raw = self._read(src) & ((1 << (8 * src.size)) - 1)
            if mnem is Mnemonic.MOVSX:
                raw = to_signed(raw, 8 * src.size) & MASK32
            self._write(ops[0], raw)
        elif mnem is Mnemonic.LEA:
            self._write(ops[0], self.mem_address(ops[1]))  # no memory access
        elif mnem in (Mnemonic.ADD, Mnemonic.SUB, Mnemonic.CMP):
            a = self._read(ops[0])
            b = self._read(ops[1])
            if mnem is Mnemonic.ADD:
                result = (a + b) & MASK32
                self.cf = a + b > MASK32
                self.of = to_signed(a) + to_signed(b) != to_signed(result)
            else:
                result = (a - b) & MASK32
                self.cf = a < b
                self.of = to_signed(a) - to_signed(b) != to_signed(result)
            self._set_zf_sf(result)
            if mnem is not Mnemonic.CMP:
                self._write(ops[0], result)
        elif mnem in (Mnemonic.AND, Mnemonic.OR, Mnemonic.XOR, Mnemonic.TEST):
            a = self._read(ops[0])
            b = self._read(ops[1])
            if mnem in (Mnemonic.AND, Mnemonic.TEST):
                result = a & b
            elif mnem is Mnemonic.OR:
                result = a | b
            else:
                result = a ^ b
            self.cf = self.of = False
            self._set_zf_sf(result)
            if mnem not in (Mnemonic.TEST,):
                self._write(ops[0], result)
        elif mnem in (Mnemonic.INC, Mnemonic.DEC):
            a = self._read(ops[0])
            delta = 1 if mnem is Mnemonic.INC else -1
            result = (a + delta) & MASK32
            self.of = to_signed(a) + delta != to_signed(result)
            self._set_zf_sf(result)  # CF is preserved by INC/DEC
            self._write(ops[0], result)
        elif mnem is Mnemonic.NEG:
            a = self._read(ops[0])
            result = (-a) & MASK32
            self.cf = a != 0
            self.of = a == 0x8000_0000
            self._set_zf_sf(result)
            self._write(ops[0], result)
        elif mnem is Mnemonic.NOT:
            self._write(ops[0], (~self._read(ops[0])) & MASK32)
        elif mnem is Mnemonic.IMUL:
            a = to_signed(self._read(ops[0]))
            b = to_signed(self._read(ops[1]))
            full = a * b
            result = full & MASK32
            self.cf = self.of = to_signed(result) != full
            self._set_zf_sf(result)  # deterministic choice; IA-32 undefined
            self._write(ops[0], result)
        elif mnem is Mnemonic.IDIV:
            divisor = to_signed(self._read(ops[0]))
            if divisor == 0:
                raise EmulationError(f"division by zero at {instr.address:#x}")
            dividend = to_signed(
                (self.regs[Reg.EDX] << 32) | self.regs[Reg.EAX], bits=64
            )
            quotient = int(dividend / divisor)  # truncates toward zero
            remainder = dividend - quotient * divisor
            self.regs[Reg.EAX] = quotient & MASK32
            self.regs[Reg.EDX] = remainder & MASK32
        elif mnem is Mnemonic.CDQ:
            self.regs[Reg.EDX] = MASK32 if self.regs[Reg.EAX] & 0x8000_0000 else 0
        elif mnem in (Mnemonic.SHL, Mnemonic.SHR, Mnemonic.SAR):
            a = self._read(ops[0])
            count = self._read(ops[1]) & 0x1F
            if count:
                if mnem is Mnemonic.SHL:
                    result = (a << count) & MASK32
                    self.cf = bool((a >> (32 - count)) & 1)
                elif mnem is Mnemonic.SHR:
                    result = a >> count
                    self.cf = bool((a >> (count - 1)) & 1)
                else:
                    result = (to_signed(a) >> count) & MASK32
                    self.cf = bool((to_signed(a) >> (count - 1)) & 1)
                self.of = False  # deterministic choice; IA-32: defined for count 1
                self._set_zf_sf(result)
                self._write(ops[0], result)
        elif mnem is Mnemonic.PUSH:
            value = self._read(ops[0])
            new_esp = (self.regs[Reg.ESP] - 4) & MASK32
            self.memory.write(new_esp, value, 4)
            self._mem_ops.append(
                MemOp(is_store=True, address=new_esp, size=4, data=value)
            )
            self.regs[Reg.ESP] = new_esp
        elif mnem is Mnemonic.POP:
            esp = self.regs[Reg.ESP]
            value = self.memory.read(esp, 4)
            self._mem_ops.append(MemOp(is_store=False, address=esp, size=4, data=value))
            self.regs[Reg.ESP] = (esp + 4) & MASK32
            self._write(ops[0], value)
        elif mnem is Mnemonic.CALL:
            target = self._target(instr, ops[0])
            retaddr = next_pc
            new_esp = (self.regs[Reg.ESP] - 4) & MASK32
            self.memory.write(new_esp, retaddr, 4)
            self._mem_ops.append(
                MemOp(is_store=True, address=new_esp, size=4, data=retaddr)
            )
            self.regs[Reg.ESP] = new_esp
            next_pc = target
        elif mnem is Mnemonic.RET:
            esp = self.regs[Reg.ESP]
            target = self.memory.read(esp, 4)
            self._mem_ops.append(
                MemOp(is_store=False, address=esp, size=4, data=target)
            )
            self.regs[Reg.ESP] = (esp + 4) & MASK32
            next_pc = target
        elif mnem is Mnemonic.JMP:
            next_pc = self._target(instr, ops[0])
        elif mnem is Mnemonic.JCC:
            assert instr.cond is not None
            taken = cond_holds(
                instr.cond, cf=self.cf, zf=self.zf, sf=self.sf, of=self.of
            )
            branch_taken = taken
            if taken:
                next_pc = self._target(instr, ops[0])
        else:  # pragma: no cover - exhaustive over Mnemonic
            raise EmulationError(f"unimplemented mnemonic {mnem}")
        return next_pc, branch_taken


def _writes_flags(instr: Instruction) -> bool:
    """Whether the instruction architecturally writes any modeled flag."""
    return instr.mnemonic in (
        Mnemonic.ADD,
        Mnemonic.SUB,
        Mnemonic.CMP,
        Mnemonic.AND,
        Mnemonic.OR,
        Mnemonic.XOR,
        Mnemonic.TEST,
        Mnemonic.INC,
        Mnemonic.DEC,
        Mnemonic.NEG,
        Mnemonic.IMUL,
        Mnemonic.SHL,
        Mnemonic.SHR,
        Mnemonic.SAR,
    )


def _written_regs(instr: Instruction) -> tuple[Reg, ...]:
    """Registers an instruction architecturally writes (value may be unchanged)."""
    mnem = instr.mnemonic
    ops = instr.operands
    regs: list[Reg] = []
    if mnem in (Mnemonic.PUSH, Mnemonic.POP, Mnemonic.CALL, Mnemonic.RET):
        regs.append(Reg.ESP)
    if mnem is Mnemonic.POP and isinstance(ops[0], Reg):
        regs.append(ops[0])
    if mnem is Mnemonic.IDIV:
        regs.extend((Reg.EAX, Reg.EDX))
    if mnem is Mnemonic.CDQ:
        regs.append(Reg.EDX)
    if mnem in (
        Mnemonic.MOV,
        Mnemonic.MOVZX,
        Mnemonic.MOVSX,
        Mnemonic.LEA,
        Mnemonic.ADD,
        Mnemonic.SUB,
        Mnemonic.AND,
        Mnemonic.OR,
        Mnemonic.XOR,
        Mnemonic.INC,
        Mnemonic.DEC,
        Mnemonic.NEG,
        Mnemonic.NOT,
        Mnemonic.IMUL,
        Mnemonic.SHL,
        Mnemonic.SHR,
        Mnemonic.SAR,
    ) and ops and isinstance(ops[0], Reg):
        regs.append(ops[0])
    return tuple(dict.fromkeys(regs))
