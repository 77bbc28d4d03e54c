"""Instruction and operand model for the x86 subset.

Instructions are held in a decoded, structured form rather than as machine
bytes: the paper's trace files carried disassembled instruction data, so
the simulator never needs a binary encoding.  Each instruction does carry
a realistic *encoded length* (computed by the assembler) so that
instruction-cache behaviour is meaningful.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.x86.registers import Reg


class Mnemonic(enum.Enum):
    """Supported x86-subset mnemonics."""

    MOV = "mov"
    MOVZX = "movzx"
    MOVSX = "movsx"
    LEA = "lea"
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    CMP = "cmp"
    TEST = "test"
    INC = "inc"
    DEC = "dec"
    NEG = "neg"
    NOT = "not"
    IMUL = "imul"
    IDIV = "idiv"
    CDQ = "cdq"
    SHL = "shl"
    SHR = "shr"
    SAR = "sar"
    PUSH = "push"
    POP = "pop"
    CALL = "call"
    RET = "ret"
    JMP = "jmp"
    JCC = "jcc"
    NOP = "nop"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Cond(enum.Enum):
    """Condition codes for Jcc (and for uop-level branches/assertions)."""

    Z = "z"
    NZ = "nz"
    L = "l"
    GE = "ge"
    LE = "le"
    G = "g"
    B = "b"
    AE = "ae"
    BE = "be"
    A = "a"
    S = "s"
    NS = "ns"

    def inverse(self) -> "Cond":
        """Return the condition that is true exactly when self is false."""
        return _COND_INVERSE[self]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_COND_INVERSE = {
    Cond.Z: Cond.NZ,
    Cond.NZ: Cond.Z,
    Cond.L: Cond.GE,
    Cond.GE: Cond.L,
    Cond.LE: Cond.G,
    Cond.G: Cond.LE,
    Cond.B: Cond.AE,
    Cond.AE: Cond.B,
    Cond.BE: Cond.A,
    Cond.A: Cond.BE,
    Cond.S: Cond.NS,
    Cond.NS: Cond.S,
}


def cond_holds(cond: Cond, *, cf: bool, zf: bool, sf: bool, of: bool) -> bool:
    """Evaluate a condition code against flag values (IA-32 semantics)."""
    if cond is Cond.Z:
        return zf
    if cond is Cond.NZ:
        return not zf
    if cond is Cond.L:
        return sf != of
    if cond is Cond.GE:
        return sf == of
    if cond is Cond.LE:
        return zf or (sf != of)
    if cond is Cond.G:
        return not zf and (sf == of)
    if cond is Cond.B:
        return cf
    if cond is Cond.AE:
        return not cf
    if cond is Cond.BE:
        return cf or zf
    if cond is Cond.A:
        return not cf and not zf
    if cond is Cond.S:
        return sf
    if cond is Cond.NS:
        return not sf
    raise ValueError(f"unknown condition {cond!r}")


@dataclass(frozen=True)
class Imm:
    """An immediate operand."""

    value: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.value:#x}" if abs(self.value) > 9 else str(self.value)


@dataclass(frozen=True)
class Mem:
    """A memory operand: ``[base + index*scale + disp]`` of a given size.

    ``size`` is the access width in bytes (1, 2, or 4).
    """

    base: Reg | None = None
    index: Reg | None = None
    scale: int = 1
    disp: int = 0
    size: int = 4

    def __post_init__(self) -> None:
        if self.scale not in (1, 2, 4, 8):
            raise ValueError(f"invalid scale {self.scale}")
        if self.size not in (1, 2, 4):
            raise ValueError(f"invalid access size {self.size}")
        if self.base is None and self.index is None and self.disp == 0:
            raise ValueError("memory operand needs a base, index, or disp")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        if self.base is not None:
            parts.append(self.base.name)
        if self.index is not None:
            term = self.index.name
            if self.scale != 1:
                term += f"*{self.scale}"
            parts.append(term)
        if self.disp or not parts:
            parts.append(f"{self.disp:#x}")
        return "[" + " + ".join(parts) + "]"


@dataclass(frozen=True)
class Label:
    """A symbolic code label, resolved to an address by the assembler."""

    name: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


Operand = Reg | Imm | Mem | Label

_BRANCHES = frozenset({Mnemonic.JCC, Mnemonic.JMP, Mnemonic.CALL, Mnemonic.RET})


@dataclass
class Instruction:
    """One decoded x86-subset instruction.

    ``operands`` follows Intel order (destination first).  ``cond`` is only
    meaningful for :data:`Mnemonic.JCC`.  ``address`` and ``length`` are
    assigned by the assembler; ``length`` approximates a realistic IA-32
    encoding size so the instruction cache sees plausible footprints.
    """

    mnemonic: Mnemonic
    operands: tuple[Operand, ...] = ()
    cond: Cond | None = None
    address: int = 0
    length: int = 0
    label_targets: dict[str, int] = field(default_factory=dict, repr=False)
    #: Any control transfer; a field, as it is read per dynamic instance.
    is_branch: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.is_branch = self.mnemonic in _BRANCHES

    @property
    def is_conditional(self) -> bool:
        return self.mnemonic is Mnemonic.JCC

    @property
    def is_indirect(self) -> bool:
        """True when the control-transfer target comes from a register/memory."""
        if self.mnemonic is Mnemonic.RET:
            return True
        if self.mnemonic in (Mnemonic.JMP, Mnemonic.CALL):
            return bool(self.operands) and not isinstance(self.operands[0], Label)
        return False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        name = self.mnemonic.value
        if self.mnemonic is Mnemonic.JCC:
            name = f"j{self.cond.value}" if self.cond else "jcc"
        ops = ", ".join(
            op.name if isinstance(op, Reg) else str(op) for op in self.operands
        )
        return f"{name} {ops}".strip()


def estimate_length(instr: Instruction) -> int:
    """Estimate a realistic IA-32 encoding length for ``instr``.

    This does not aim to be exact; it reproduces the statistical flavour of
    x86 code (1-byte push/pop, multi-byte memory forms) so that the ICache
    model sees plausible line occupancy.
    """
    mnem = instr.mnemonic
    if mnem is Mnemonic.NOP:
        return 1
    if mnem in (Mnemonic.PUSH, Mnemonic.POP):
        op = instr.operands[0] if instr.operands else None
        if isinstance(op, Reg):
            return 1
        if isinstance(op, Imm):
            return 2 if -128 <= op.value <= 127 else 5
        return 3
    if mnem is Mnemonic.RET:
        return 1
    if mnem is Mnemonic.CDQ:
        return 1
    if mnem in (Mnemonic.INC, Mnemonic.DEC):
        return 1 if isinstance(instr.operands[0], Reg) else 3

    length = 1  # opcode byte
    if mnem in (Mnemonic.MOVZX, Mnemonic.MOVSX, Mnemonic.IMUL, Mnemonic.JCC):
        length += 1  # two-byte opcode space (0F xx) / jcc rel32 opcode
    has_modrm = mnem not in (Mnemonic.JMP, Mnemonic.CALL, Mnemonic.JCC)
    if has_modrm:
        length += 1
    for op in instr.operands:
        if isinstance(op, Mem):
            if op.index is not None:
                length += 1  # SIB byte
            if op.disp == 0 and op.base not in (None, Reg.EBP):
                pass
            elif -128 <= op.disp <= 127:
                length += 1
            else:
                length += 4
            if op.base is None and op.index is None:
                length += 4
        elif isinstance(op, Imm):
            length += 1 if -128 <= op.value <= 127 else 4
        elif isinstance(op, Label):
            length += 4  # rel32
    return length
