"""x86 → rePLay-ISA decode flows.

Each x86 instruction decodes *independently* into one or more uops (paper
§3): this independence is exactly what creates the redundancy the
optimizer later removes.  The flows below are written to be "fairly
efficient" like the paper's, landing near the paper's 1.4 uops-per-x86
average on the workload mix.

Decode is purely static: given an :class:`Instruction`, the same uop
sequence always results, and the cached tuple is shared by every
instance of the instruction.  The Micro-Op Injector carries each
instance's memory addresses beside it; nothing writes to these uops.
"""

from __future__ import annotations

from repro.x86.instructions import (
    Imm,
    Instruction,
    Label,
    Mem,
    Mnemonic,
)
from repro.x86.registers import Reg
from repro.uops.uop import Uop, UopOp, UReg


class TranslationError(Exception):
    """Raised when an instruction has no decode flow."""


_ALU_MAP = {
    Mnemonic.ADD: UopOp.ADD,
    Mnemonic.SUB: UopOp.SUB,
    Mnemonic.AND: UopOp.AND,
    Mnemonic.OR: UopOp.OR,
    Mnemonic.XOR: UopOp.XOR,
    Mnemonic.SHL: UopOp.SHL,
    Mnemonic.SHR: UopOp.SHR,
    Mnemonic.SAR: UopOp.SAR,
}


def _ureg(reg: Reg) -> UReg:
    return UReg(int(reg))


def _mem_operands(operand: Mem) -> dict:
    """Translate a memory operand into uop address-expression fields."""
    return {
        "src_a": _ureg(operand.base) if operand.base is not None else None,
        "src_b": _ureg(operand.index) if operand.index is not None else None,
        "scale": operand.scale,
        "imm": operand.disp,
        "size": operand.size,
    }


class Translator:
    """Stateless x86-to-uop translator with a decode cache."""

    def __init__(self) -> None:
        self._cache: dict[int, tuple[Instruction, tuple[Uop, ...]]] = {}

    def translate(self, instr: Instruction) -> tuple[Uop, ...]:
        """Decode ``instr``; results are cached per instruction object, not
        per address (two programs may put different instructions at one
        address), and the cache keeps the object alive so its ``id`` stays
        unique."""
        cached = self._cache.get(id(instr))
        if cached is not None:
            return cached[1]
        uops = tuple(self._decode(instr))
        for uop in uops:
            uop.x86_pc = instr.address
        self._cache[id(instr)] = (instr, uops)
        return uops

    # ------------------------------------------------------------ decode

    def _decode(self, instr: Instruction) -> list[Uop]:
        mnem = instr.mnemonic
        ops = instr.operands

        if mnem is Mnemonic.NOP:
            return [Uop(UopOp.NOP)]

        if mnem is Mnemonic.MOV:
            return self._decode_mov(instr)
        if mnem in (Mnemonic.MOVZX, Mnemonic.MOVSX):
            dst, src = ops
            if not isinstance(src, Mem):
                raise TranslationError(
                    f"{mnem.name} requires a memory source: {instr}"
                )
            load = Uop(UopOp.LOAD, dst=_ureg(dst), **_mem_operands(src))
            load.sign_extend = mnem is Mnemonic.MOVSX
            return [load]
        if mnem is Mnemonic.LEA:
            dst, src = ops
            fields = _mem_operands(src)
            fields.pop("size")
            return [Uop(UopOp.LEA, dst=_ureg(dst), **fields)]

        if mnem in _ALU_MAP or mnem in (Mnemonic.CMP, Mnemonic.TEST):
            return self._decode_alu(instr)
        if mnem in (Mnemonic.INC, Mnemonic.DEC):
            return self._decode_incdec(instr)
        if mnem in (Mnemonic.NEG, Mnemonic.NOT):
            return self._decode_unary(instr)
        if mnem is Mnemonic.IMUL:
            return self._decode_imul(instr)
        if mnem is Mnemonic.IDIV:
            return self._decode_idiv(instr)
        if mnem is Mnemonic.CDQ:
            # EDX <- EAX >>(arithmetic) 31; CDQ writes no flags.
            return [
                Uop(UopOp.SAR, dst=UReg.EDX, src_a=UReg.EAX, imm=31)
            ]

        if mnem is Mnemonic.PUSH:
            return self._decode_push(instr)
        if mnem is Mnemonic.POP:
            return self._decode_pop(instr)
        if mnem is Mnemonic.CALL:
            return self._decode_call(instr)
        if mnem is Mnemonic.RET:
            return self._decode_ret(instr)
        if mnem is Mnemonic.JMP:
            return self._decode_jmp(instr)
        if mnem is Mnemonic.JCC:
            target = instr.label_targets[ops[0].name]  # type: ignore[union-attr]
            return [Uop(UopOp.BR, cond=instr.cond, target=target)]

        raise TranslationError(f"no decode flow for {instr}")

    # ------------------------------------------------------- decode flows

    def _decode_mov(self, instr: Instruction) -> list[Uop]:
        dst, src = instr.operands
        if isinstance(dst, Reg):
            if isinstance(src, Reg):
                return [Uop(UopOp.MOV, dst=_ureg(dst), src_a=_ureg(src))]
            if isinstance(src, Imm):
                return [Uop(UopOp.LIMM, dst=_ureg(dst), imm=src.value)]
            if isinstance(src, Mem):
                return [Uop(UopOp.LOAD, dst=_ureg(dst), **_mem_operands(src))]
        if isinstance(dst, Mem):
            if isinstance(src, Reg):
                return [Uop(UopOp.STORE, src_data=_ureg(src), **_mem_operands(dst))]
            if isinstance(src, Imm):
                return [
                    Uop(UopOp.LIMM, dst=UReg.ET0, imm=src.value),
                    Uop(UopOp.STORE, src_data=UReg.ET0, **_mem_operands(dst)),
                ]
        raise TranslationError(f"unsupported MOV form: {instr}")

    def _decode_alu(self, instr: Instruction) -> list[Uop]:
        mnem = instr.mnemonic
        dst, src = instr.operands
        is_compare = mnem in (Mnemonic.CMP, Mnemonic.TEST)
        op = {
            Mnemonic.CMP: UopOp.SUB,
            Mnemonic.TEST: UopOp.AND,
        }.get(mnem) or _ALU_MAP[mnem]

        uops: list[Uop] = []
        # Left operand.
        if isinstance(dst, Mem):
            uops.append(Uop(UopOp.LOAD, dst=UReg.ET0, **_mem_operands(dst)))
            left: UReg = UReg.ET0
        else:
            left = _ureg(dst)  # type: ignore[arg-type]
        # Right operand.
        src_b: UReg | None = None
        imm: int | None = None
        if isinstance(src, Reg):
            src_b = _ureg(src)
        elif isinstance(src, Imm):
            imm = src.value
        elif isinstance(src, Mem):
            uops.append(Uop(UopOp.LOAD, dst=UReg.ET1, **_mem_operands(src)))
            src_b = UReg.ET1
        else:
            raise TranslationError(f"unsupported ALU source: {instr}")

        result: UReg | None
        if is_compare:
            result = None
        elif isinstance(dst, Mem):
            result = UReg.ET2
        else:
            result = _ureg(dst)  # type: ignore[arg-type]
        uops.append(
            Uop(op, dst=result, src_a=left, src_b=src_b, imm=imm, writes_flags=True)
        )
        if not is_compare and isinstance(dst, Mem):
            uops.append(Uop(UopOp.STORE, src_data=UReg.ET2, **_mem_operands(dst)))
        return uops

    def _decode_incdec(self, instr: Instruction) -> list[Uop]:
        op = UopOp.ADD if instr.mnemonic is Mnemonic.INC else UopOp.SUB
        (dst,) = instr.operands
        if isinstance(dst, Reg):
            return [
                Uop(
                    op,
                    dst=_ureg(dst),
                    src_a=_ureg(dst),
                    imm=1,
                    writes_flags=True,
                    preserves_cf=True,
                )
            ]
        if isinstance(dst, Mem):
            return [
                Uop(UopOp.LOAD, dst=UReg.ET0, **_mem_operands(dst)),
                Uop(
                    op,
                    dst=UReg.ET1,
                    src_a=UReg.ET0,
                    imm=1,
                    writes_flags=True,
                    preserves_cf=True,
                ),
                Uop(UopOp.STORE, src_data=UReg.ET1, **_mem_operands(dst)),
            ]
        raise TranslationError(f"unsupported INC/DEC form: {instr}")

    def _decode_unary(self, instr: Instruction) -> list[Uop]:
        op = UopOp.NEG if instr.mnemonic is Mnemonic.NEG else UopOp.NOT
        writes_flags = instr.mnemonic is Mnemonic.NEG
        (dst,) = instr.operands
        if isinstance(dst, Reg):
            return [
                Uop(op, dst=_ureg(dst), src_a=_ureg(dst), writes_flags=writes_flags)
            ]
        if isinstance(dst, Mem):
            return [
                Uop(UopOp.LOAD, dst=UReg.ET0, **_mem_operands(dst)),
                Uop(op, dst=UReg.ET1, src_a=UReg.ET0, writes_flags=writes_flags),
                Uop(UopOp.STORE, src_data=UReg.ET1, **_mem_operands(dst)),
            ]
        raise TranslationError(f"unsupported NEG/NOT form: {instr}")

    def _decode_imul(self, instr: Instruction) -> list[Uop]:
        dst, src = instr.operands
        uops: list[Uop] = []
        if isinstance(src, Mem):
            uops.append(Uop(UopOp.LOAD, dst=UReg.ET0, **_mem_operands(src)))
            right: UReg | None = UReg.ET0
            imm = None
        elif isinstance(src, Reg):
            right, imm = _ureg(src), None
        else:
            right, imm = None, src.value  # type: ignore[union-attr]
        uops.append(
            Uop(
                UopOp.MUL,
                dst=_ureg(dst),
                src_a=_ureg(dst),
                src_b=right,
                imm=imm,
                writes_flags=True,
            )
        )
        return uops

    def _decode_idiv(self, instr: Instruction) -> list[Uop]:
        (src,) = instr.operands
        uops: list[Uop] = []
        if isinstance(src, Mem):
            uops.append(Uop(UopOp.LOAD, dst=UReg.ET0, **_mem_operands(src)))
            divisor: UReg = UReg.ET0
        elif isinstance(src, Reg):
            divisor = _ureg(src)
        else:
            raise TranslationError("IDIV by immediate is not valid x86")
        # x86 pins the dividend to EDX:EAX — the paper's example of how
        # non-uniform semantics constrain the compiler (§1).
        uops.append(
            Uop(
                UopOp.DIVQ,
                dst=UReg.ET1,
                src_a=UReg.EAX,
                src_b=divisor,
                src_data=UReg.EDX,
            )
        )
        uops.append(
            Uop(
                UopOp.DIVR,
                dst=UReg.EDX,
                src_a=UReg.EAX,
                src_b=divisor,
                src_data=UReg.EDX,
            )
        )
        uops.append(Uop(UopOp.MOV, dst=UReg.EAX, src_a=UReg.ET1))
        return uops

    def _decode_push(self, instr: Instruction) -> list[Uop]:
        (src,) = instr.operands
        uops: list[Uop] = []
        if isinstance(src, Reg):
            data: UReg = _ureg(src)
        elif isinstance(src, Imm):
            uops.append(Uop(UopOp.LIMM, dst=UReg.ET0, imm=src.value))
            data = UReg.ET0
        elif isinstance(src, Mem):
            uops.append(Uop(UopOp.LOAD, dst=UReg.ET0, **_mem_operands(src)))
            data = UReg.ET0
        else:
            raise TranslationError(f"unsupported PUSH form: {instr}")
        uops.append(
            Uop(UopOp.STORE, src_a=UReg.ESP, imm=-4, src_data=data)
        )
        uops.append(Uop(UopOp.SUB, dst=UReg.ESP, src_a=UReg.ESP, imm=4))
        return uops

    def _decode_pop(self, instr: Instruction) -> list[Uop]:
        (dst,) = instr.operands
        return [
            Uop(UopOp.LOAD, dst=_ureg(dst), src_a=UReg.ESP, imm=0),
            Uop(UopOp.ADD, dst=UReg.ESP, src_a=UReg.ESP, imm=4),
        ]

    def _decode_call(self, instr: Instruction) -> list[Uop]:
        (target,) = instr.operands
        retaddr = instr.address + instr.length
        uops: list[Uop] = [
            Uop(UopOp.LIMM, dst=UReg.ET3, imm=retaddr),
            Uop(UopOp.STORE, src_a=UReg.ESP, imm=-4, src_data=UReg.ET3),
            Uop(UopOp.SUB, dst=UReg.ESP, src_a=UReg.ESP, imm=4),
        ]
        if isinstance(target, Label):
            uops.append(Uop(UopOp.JMP, target=instr.label_targets[target.name]))
        elif isinstance(target, Reg):
            uops.append(Uop(UopOp.JMPI, src_a=_ureg(target)))
        elif isinstance(target, Mem):
            uops.insert(0, Uop(UopOp.LOAD, dst=UReg.ET4, **_mem_operands(target)))
            uops.append(Uop(UopOp.JMPI, src_a=UReg.ET4))
        else:
            raise TranslationError(f"unsupported CALL form: {instr}")
        return uops

    def _decode_ret(self, instr: Instruction) -> list[Uop]:
        # Matches the paper's Figure 2 flow (uops 15-17).
        return [
            Uop(UopOp.LOAD, dst=UReg.ET2, src_a=UReg.ESP, imm=0),
            Uop(UopOp.ADD, dst=UReg.ESP, src_a=UReg.ESP, imm=4),
            Uop(UopOp.JMPI, src_a=UReg.ET2),
        ]

    def _decode_jmp(self, instr: Instruction) -> list[Uop]:
        (target,) = instr.operands
        if isinstance(target, Label):
            return [Uop(UopOp.JMP, target=instr.label_targets[target.name])]
        if isinstance(target, Reg):
            return [Uop(UopOp.JMPI, src_a=_ureg(target))]
        if isinstance(target, Mem):
            return [
                Uop(UopOp.LOAD, dst=UReg.ET4, **_mem_operands(target)),
                Uop(UopOp.JMPI, src_a=UReg.ET4),
            ]
        raise TranslationError(f"unsupported JMP form: {instr}")
