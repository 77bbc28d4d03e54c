"""The rePLay micro-operation ISA.

Real x86 micro-operation formats are proprietary, so — exactly as the
paper did (§5.1.1) — we model a generic RISC-like ISA with three-operand
micro-operations, explicit load/store uops carrying ``base + index*scale +
disp`` address expressions, and assertion uops for frame-internal control
(paper §2, §3).

Register space: the eight x86 architectural registers plus a small set of
temporaries (``ET0`` ...) used by multi-uop decode flows, mirroring the
paper's ``ET2`` in Figure 2.  Flags form a separate implicit register:
``writes_flags`` marks producers and condition-consuming uops (``BR``,
``ASSERT``) read the most recent flag definition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.x86.instructions import Cond

__all__ = ["UReg", "UopOp", "Uop", "Cond"]


class UReg(enum.IntEnum):
    """Micro-operation register identifiers.

    Values 0-7 coincide with :class:`repro.x86.registers.Reg` so that
    architectural registers convert by value.
    """

    EAX = 0
    ECX = 1
    EDX = 2
    EBX = 3
    ESP = 4
    EBP = 5
    ESI = 6
    EDI = 7
    ET0 = 8
    ET1 = 9
    ET2 = 10
    ET3 = 11
    ET4 = 12
    ET5 = 13

    @property
    def is_architectural(self) -> bool:
        return self < UReg.ET0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: Temporaries available to decode flows.
TEMP_REGS: tuple[UReg, ...] = (
    UReg.ET0,
    UReg.ET1,
    UReg.ET2,
    UReg.ET3,
    UReg.ET4,
    UReg.ET5,
)

#: Architectural uop registers, by x86 register value.
ARCH_REGS: tuple[UReg, ...] = tuple(UReg(i) for i in range(8))


class UopOp(enum.Enum):
    """Micro-operation opcodes."""

    LIMM = "limm"  # dst <- imm
    MOV = "mov"  # dst <- srcA
    ADD = "add"  # dst <- srcA + (srcB | imm)
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    SAR = "sar"
    MUL = "mul"  # dst <- low32(srcA * srcB)   (signed)
    DIVQ = "divq"  # dst <- (src_data:srcA) / srcB (signed quotient)
    DIVR = "divr"  # dst <- (src_data:srcA) % srcB (signed remainder)
    NEG = "neg"
    NOT = "not"
    SEXT = "sext"  # dst <- sign_extend(srcA, size)
    LEA = "lea"  # dst <- srcA + srcB*scale + imm (no memory access)
    LOAD = "load"  # dst <- MEM[srcA + srcB*scale + imm]
    STORE = "store"  # MEM[srcA + srcB*scale + imm] <- src_data
    BR = "br"  # conditional branch on flags (frame exit / normal code)
    JMP = "jmp"  # unconditional direct jump
    JMPI = "jmpi"  # indirect jump to srcA
    ASSERT = "assert"  # fires (rolls back frame) unless cond holds on flags
    ASSERT_CMP = "assert_cmp"  # fused compare+assert (value assertion opt)
    NOP = "nop"

    # Identity hash: Enum.__hash__ runs Python code on every set or dict
    # lookup, and the optimizer and oracle loops do millions of them.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: ALU opcodes that can take an immediate as their second operand and are
#: subject to reassociation / constant folding.
ALU_OPS = frozenset(
    {
        UopOp.ADD,
        UopOp.SUB,
        UopOp.AND,
        UopOp.OR,
        UopOp.XOR,
        UopOp.SHL,
        UopOp.SHR,
        UopOp.SAR,
        UopOp.MUL,
    }
)

#: Simple single-cycle ALU opcodes (for the timing model's FU classes).
SIMPLE_ALU_OPS = frozenset(
    {
        UopOp.LIMM,
        UopOp.MOV,
        UopOp.ADD,
        UopOp.SUB,
        UopOp.AND,
        UopOp.OR,
        UopOp.XOR,
        UopOp.SHL,
        UopOp.SHR,
        UopOp.SAR,
        UopOp.NEG,
        UopOp.NOT,
        UopOp.SEXT,
        UopOp.LEA,
        UopOp.NOP,
        UopOp.ASSERT,
        UopOp.ASSERT_CMP,
        UopOp.BR,
        UopOp.JMP,
        UopOp.JMPI,
    }
)

#: Multi-cycle "complex ALU" opcodes.
COMPLEX_ALU_OPS = frozenset({UopOp.MUL, UopOp.DIVQ, UopOp.DIVR})

CONTROL_OPS = frozenset({UopOp.BR, UopOp.JMP, UopOp.JMPI})

#: Shift opcodes whose flag output merges with the incoming flag word.
FLAG_SHIFT_OPS = frozenset({UopOp.SHL, UopOp.SHR, UopOp.SAR})


def uop_reads_flags(
    op: UopOp,
    cond: Cond | None,
    preserves_cf: bool,
    writes_flags: bool,
    has_dynamic_count: bool,
    imm: int | None,
) -> bool:
    """Whether a uop consumes the incoming flag definition.

    The single flags-dependence predicate shared by :class:`Uop`,
    :class:`repro.optimizer.optuop.OptUop`, and the timing model, so the
    frame and ICache scheduling paths agree on the dependence graph:

    * condition-consuming control (``BR``/``ASSERT``) reads flags;
    * partial flag writers (INC/DEC-derived ``preserves_cf``) merge the
      incoming CF into their output;
    * a flag-writing shift whose dynamic count may be zero passes the
      incoming flag word through unchanged, so it depends on it.
    """
    if cond is not None and op in (UopOp.BR, UopOp.ASSERT):
        return True
    if preserves_cf:
        return True
    if op in FLAG_SHIFT_OPS and writes_flags:
        return has_dynamic_count or ((imm or 0) & 0x1F) == 0
    return False


@dataclass
class Uop:
    """One micro-operation in the dynamic stream (pre-renaming form).

    Memory uops interpret ``(srcA, srcB, scale, imm)`` as the address
    expression ``srcA + srcB*scale + imm``; ``src_data`` is the stored
    value for ``STORE`` and the third operand (high half) for divides.
    """

    op: UopOp
    dst: UReg | None = None
    src_a: UReg | None = None
    src_b: UReg | None = None
    src_data: UReg | None = None
    imm: int | None = None
    scale: int = 1
    size: int = 4
    sign_extend: bool = False
    cond: Cond | None = None
    cmp_kind: UopOp | None = None  # for ASSERT_CMP: SUB (cmp) or AND (test)
    target: int | None = None  # static target for BR/JMP
    writes_flags: bool = False
    preserves_cf: bool = False  # INC/DEC-derived ADD/SUB keep CF
    x86_pc: int = 0  # owning x86 instruction address

    # Dynamic annotation (set on the frame constructor's per-instance
    # copy; the Translator's shared static uops leave it None):
    mem_address: int | None = None

    @property
    def is_load(self) -> bool:
        return self.op is UopOp.LOAD

    @property
    def is_store(self) -> bool:
        return self.op is UopOp.STORE

    @property
    def is_mem(self) -> bool:
        return self.op in (UopOp.LOAD, UopOp.STORE)

    @property
    def is_control(self) -> bool:
        return self.op in CONTROL_OPS

    @property
    def is_assertion(self) -> bool:
        return self.op in (UopOp.ASSERT, UopOp.ASSERT_CMP)

    @property
    def reads_flags(self) -> bool:
        return uop_reads_flags(
            self.op,
            self.cond,
            self.preserves_cf,
            self.writes_flags,
            self.src_b is not None,
            self.imm,
        )

    def sources(self) -> tuple[UReg, ...]:
        """All register sources, in (srcA, srcB, src_data) order."""
        return tuple(
            r for r in (self.src_a, self.src_b, self.src_data) if r is not None
        )

    def copy(self, **changes) -> "Uop":
        """Field-for-field copy with overrides (uops are mutable records).

        Hand-rolled rather than ``dataclasses.replace``: copying is the
        frame constructor's hot path (one copy per uop of every frame it
        builds), and ``replace`` re-runs the generated ``__init__`` — an
        order of magnitude slower than a ``__dict__`` clone.  The clone
        is ``__dict__.copy()``, not ``dict(__dict__)``: the Translator's
        static uops keep CPython's key-sharing instance dicts, which
        ``dict()`` rebuilds key by key at about twice the cost.
        """
        new = Uop.__new__(Uop)
        state = self.__dict__.copy()
        if changes:
            state.update(changes)
        new.__dict__ = state
        return new

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return format_uop(self)


def format_uop(uop: Uop) -> str:
    """Render a uop in the paper's Figure-2 style for humans."""

    def reg(r: UReg | None) -> str:
        return str(r) if r is not None else "?"

    def addr() -> str:
        parts = []
        if uop.src_a is not None:
            parts.append(str(uop.src_a))
        if uop.src_b is not None:
            term = str(uop.src_b)
            if uop.scale != 1:
                term += f"*{uop.scale}"
            parts.append(term)
        if uop.imm:
            parts.append(f"{uop.imm:+#x}")
        return "[" + " ".join(parts) + "]"

    op = uop.op
    flags = ",flags" if uop.writes_flags else ""
    if op is UopOp.LOAD:
        return f"{reg(uop.dst)} <- {addr()}"
    if op is UopOp.STORE:
        return f"{addr()} <- {reg(uop.src_data)}"
    if op is UopOp.LIMM:
        return f"{reg(uop.dst)}{flags} <- {uop.imm:#x}"
    if op is UopOp.MOV:
        return f"{reg(uop.dst)}{flags} <- {reg(uop.src_a)}"
    if op is UopOp.LEA:
        return f"{reg(uop.dst)} <- &{addr()}"
    if op in (UopOp.BR,):
        return f"if ({uop.cond}) jump {uop.target:#x}"
    if op is UopOp.JMP:
        return f"jump {uop.target:#x}"
    if op is UopOp.JMPI:
        return f"jump ({reg(uop.src_a)})"
    if op is UopOp.ASSERT:
        return f"assert {uop.cond}"
    if op is UopOp.ASSERT_CMP:
        kind = "cmp" if uop.cmp_kind is UopOp.SUB else "test"
        right = reg(uop.src_b) if uop.src_b is not None else f"{uop.imm:#x}"
        return f"assert {uop.cond} ({kind} {reg(uop.src_a)}, {right})"
    if op is UopOp.NOP:
        return "nop"
    right = reg(uop.src_b) if uop.src_b is not None else (
        f"{uop.imm:#x}" if uop.imm is not None else ""
    )
    if op in (UopOp.NEG, UopOp.NOT, UopOp.SEXT):
        return f"{reg(uop.dst)}{flags} <- {op.value} {reg(uop.src_a)}"
    return f"{reg(uop.dst)}{flags} <- {reg(uop.src_a)} {op.value} {right}"
