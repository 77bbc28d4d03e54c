"""The optimizer's micro-operation format (paper Figure 4).

Before optimization, every uop in a frame is *remapped* so that the uop in
buffer slot *m* writes physical register *m* (paper §4).  After remapping,
register operands are one of:

* :class:`LiveIn` — an architectural register value at frame entry
  ("Is Live In" in Figure 4);
* :class:`DefRef` — the value produced by another buffer slot (the slot
  number *is* the physical register number, so parent lookup is trivial).

Immediates live in the ``imm`` field.  Flags form a parallel def/use
chain: ``flags_src`` names the slot whose flag output this uop consumes
(``None`` = frame live-in flags).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.x86.instructions import Cond
from repro.uops.uop import Uop, UopOp, UReg, uop_reads_flags


@dataclass(frozen=True)
class LiveIn:
    """An architectural register value at frame entry."""

    reg: UReg

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.reg.name}.in"


@dataclass(frozen=True)
class DefRef:
    """The value defined by buffer slot ``slot`` (physical register #slot)."""

    slot: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"p{self.slot}"


Operand = LiveIn | DefRef

#: Operand-bearing fields, used by the dependency-list bookkeeping.
OPERAND_FIELDS = ("src_a", "src_b", "src_data")


@dataclass
class OptUop:
    """One slot of the optimization buffer.

    Fields mirror Figure 4 (opcode, physical/architectural registers,
    live-in/live-out marks, immediates) plus the dynamic annotations our
    trace-driven evaluation needs (observed memory address, position).
    """

    op: UopOp
    slot: int
    valid: bool = True
    src_a: Operand | None = None
    src_b: Operand | None = None
    src_data: Operand | None = None
    imm: int | None = None
    scale: int = 1
    size: int = 4
    sign_extend: bool = False
    cond: Cond | None = None
    cmp_kind: UopOp | None = None
    target: int | None = None
    writes_flags: bool = False
    preserves_cf: bool = False
    arch_dst: UReg | None = None  # architectural reg this slot's value maps to
    flags_src: int | None = None  # slot whose flags this uop reads (None=live-in)
    x86_pc: int = 0
    x86_index: int = 0  # index of owning x86 instruction within the frame
    mem_key: tuple[int, int] | None = None  # (x86_index, mem op index) for
    # locating this uop's dynamic address in any frame instance
    observed_address: int | None = None  # address in the constructing instance
    unsafe: bool = False  # unsafe store (speculative memory optimization)
    #: slots of the covering memory ops whose forwarded value this unsafe
    #: store was speculated not to clobber; a dynamic overlap with any of
    #: them aborts the frame.
    unsafe_guards: list[int] = field(default_factory=list)
    position: int = 0  # cleanup-stage ordering field (paper §4)

    def copy(self) -> OptUop:
        """An independent copy (operands are immutable and shared).

        Positional, in field order: keyword construction of this
        24-field dataclass costs more than twice as much.
        """
        return OptUop(
            self.op,
            self.slot,
            self.valid,
            self.src_a,
            self.src_b,
            self.src_data,
            self.imm,
            self.scale,
            self.size,
            self.sign_extend,
            self.cond,
            self.cmp_kind,
            self.target,
            self.writes_flags,
            self.preserves_cf,
            self.arch_dst,
            self.flags_src,
            self.x86_pc,
            self.x86_index,
            self.mem_key,
            self.observed_address,
            self.unsafe,
            list(self.unsafe_guards),
            self.position,
        )

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
    def is_assertion(self) -> bool:
        return self.op in (UopOp.ASSERT, UopOp.ASSERT_CMP)

    @property
    def is_control(self) -> bool:
        return self.op in (UopOp.BR, UopOp.JMP, UopOp.JMPI)

    @property
    def reads_flags(self) -> bool:
        """True when this uop consumes the flags def named by flags_src.

        Delegates to :func:`repro.uops.uop.uop_reads_flags`, the single
        predicate shared with :class:`~repro.uops.uop.Uop` and the timing
        model, so the frame and ICache paths agree on flags dependences.
        """
        return uop_reads_flags(
            self.op,
            self.cond,
            self.preserves_cf,
            self.writes_flags,
            self.src_b is not None,
            self.imm,
        )

    @property
    def has_value_dst(self) -> bool:
        """Whether this slot defines a value (physical register #slot)."""
        return self.op in _VALUE_PRODUCERS

    def operands(self) -> list[tuple[str, Operand]]:
        """All (field-name, operand) pairs currently set."""
        result = []
        for name in OPERAND_FIELDS:
            value = getattr(self, name)
            if value is not None:
                result.append((name, value))
        return result

    def address_expr(self) -> tuple[Operand | None, Operand | None, int, int]:
        """Symbolic address (base, index, scale, disp) of a memory uop.

        Two memory uops refer to the same address iff their tuples are
        equal (paper §6.4: base registers symbolically the same,
        immediates and scales literally the same).
        """
        return (self.src_a, self.src_b, self.scale, self.imm or 0)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return format_optuop(self)


_VALUE_PRODUCERS = frozenset(
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
        UopOp.MUL,
        UopOp.DIVQ,
        UopOp.DIVR,
        UopOp.NEG,
        UopOp.NOT,
        UopOp.SEXT,
        UopOp.LEA,
        UopOp.LOAD,
    }
)


def from_dyn_uop(uop: Uop, slot: int) -> OptUop:
    """Shallow conversion of a dynamic uop; operands are bound later."""
    return OptUop(
        op=uop.op,
        slot=slot,
        imm=uop.imm,
        scale=uop.scale,
        size=uop.size,
        sign_extend=uop.sign_extend,
        cond=uop.cond,
        cmp_kind=uop.cmp_kind,
        target=uop.target,
        writes_flags=uop.writes_flags,
        preserves_cf=uop.preserves_cf,
        x86_pc=uop.x86_pc,
        observed_address=uop.mem_address,
    )


def format_optuop(uop: OptUop) -> str:
    """Readable rendering in the style of the paper's Figure 2 columns."""

    def opnd(operand: Operand | None) -> str:
        return str(operand) if operand is not None else "?"

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
        return "[" + " ".join(parts) + "]" if parts else f"[{uop.imm or 0:#x}]"

    dst = f"p{uop.slot}"
    if uop.arch_dst is not None:
        dst += f"({uop.arch_dst.name})"
    flags = ",flags" if uop.writes_flags else ""
    op = uop.op
    if op is UopOp.LOAD:
        return f"{dst} <- {addr()}"
    if op is UopOp.STORE:
        marker = " (unsafe)" if uop.unsafe else ""
        return f"{addr()} <- {opnd(uop.src_data)}{marker}"
    if op is UopOp.LIMM:
        return f"{dst}{flags} <- {uop.imm:#x}"
    if op is UopOp.MOV:
        return f"{dst}{flags} <- {opnd(uop.src_a)}"
    if op is UopOp.LEA:
        return f"{dst} <- &{addr()}"
    if op is UopOp.BR:
        return f"if ({uop.cond}) jump {uop.target:#x}" if uop.target else f"br {uop.cond}"
    if op is UopOp.JMP:
        return f"jump {uop.target:#x}"
    if op is UopOp.JMPI:
        return f"jump ({opnd(uop.src_a)})"
    if op is UopOp.ASSERT:
        return f"assert {uop.cond}"
    if op is UopOp.ASSERT_CMP:
        kind = "cmp" if uop.cmp_kind is UopOp.SUB else "test"
        right = opnd(uop.src_b) if uop.src_b is not None else f"{(uop.imm or 0):#x}"
        return f"assert {uop.cond} ({kind} {opnd(uop.src_a)}, {right})"
    if op is UopOp.NOP:
        return "nop"
    if op in (UopOp.NEG, UopOp.NOT, UopOp.SEXT):
        return f"{dst}{flags} <- {op.value} {opnd(uop.src_a)}"
    right = (
        opnd(uop.src_b)
        if uop.src_b is not None
        else (f"{uop.imm:#x}" if uop.imm is not None else "")
    )
    return f"{dst}{flags} <- {opnd(uop.src_a)} {op.value} {right}"
