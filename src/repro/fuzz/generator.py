"""Seeded random x86 program generator.

Programs are generated as a JSON-serializable *genome* — a flat list of
op records plus register/data initialisation — and only then rendered
through :class:`repro.x86.assembler.Assembler`.  The split matters for
two reasons: the delta-debugging shrinker edits genomes (dropping ops,
simplifying fields) without touching assembly details, and minimized
repros persist in the artifact store as plain JSON that re-renders
byte-identically forever.

Every program has the same skeleton, chosen to pull the whole rePLay
stack into play:

* register roles — ``ESI``/``EDI`` are data-region bases whose distance
  (``alias_delta``) controls load/store aliasing (0 = perfect aliasing,
  1-3 = partial overlap against sized accesses, larger = disjoint);
  ``ECX`` counts loop iterations; ``EAX``/``EBX``/``EDX``/``EBP`` are
  the mutable scratch set, seeded with "dirty" 32-bit values so
  MOVZX/MOVSX must actually replace high bits;
* a counted loop whose backedge (``dec ecx; jnz``) is biased-taken,
  which lets the frame constructor promote it and build frames spanning
  loop iterations;
* body ops drawn from the full translated subset — ALU reg/imm/mem
  forms, flag-only compares, sized loads/stores through both bases,
  MOVZX/MOVSX, LEA, shifts (immediate and ``ECX``-count), unaries, CDQ,
  balanced push/pop pairs, and forward conditional branches with
  generator-controlled bias (assertion-conversion fodder);
* an epilogue that stores the scratch registers back to memory, so the
  final memory map check sees every result;
* with ``GeneratorConfig.call_weight`` > 0, ``call`` ops into small
  leaf helper routines placed after the epilogue.

All randomness flows from one explicit ``random.Random(seed)``; two
calls with equal seed and config produce equal genomes, and rendering
is deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.x86.assembler import Assembler, Program, mem
from repro.x86.instructions import Cond, Imm
from repro.x86.registers import Reg

#: Base address of the fuzz data region (well away from code and stack).
DATA_BASE = 0x0050_0000

#: Byte offset (from ``ESI``) of the epilogue's result spill area; must
#: lie beyond the largest body access (disp <= 60, size <= 4).
RESULT_DISP = 128

#: Registers the body may write.
SCRATCH_REGS = ("eax", "ebx", "edx", "ebp")

#: Registers the body may read (scratch + bases + loop counter).
READ_REGS = SCRATCH_REGS + ("ecx", "esi", "edi")

_CONDS = tuple(c.value for c in Cond)

#: Immediates weighted toward carry/overflow/sign boundaries.
_IMM_POOL = (
    0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 32, 100,
    0x7F, 0x80, 0xFF, 0x100, 0x7FFF, 0x8000, 0xFFFF,
    0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF,
    -1, -2, -8, -128, -0x8000,
)

#: Displacements kept small and clustered so accesses through the two
#: bases collide often (exactly the traffic store-forwarding and the
#: unsafe-store check speculate about).
_DISP_POOL = (0, 1, 2, 3, 4, 6, 8, 12, 16, 20, 24, 32, 40, 48, 60)

_ALU_OPS = ("add", "sub", "and", "or", "xor", "imul")
_ALU_MEM_OPS = ("add", "sub", "and", "or", "xor")
_SHIFT_OPS = ("shl", "shr", "sar")
_UNARY_OPS = ("neg", "not", "inc", "dec")

#: ESI/EDI distance choices: exact, partial, word, disjoint aliasing.
_ALIAS_DELTAS = (0, 0, 1, 2, 3, 4, 4, 8, 16, 64)


@dataclass(frozen=True)
class GeneratorConfig:
    """Size and structure knobs for generated programs.

    The default config is the legacy generator: its RNG draw sequence
    and genomes are fixed, so fuzz campaign digests and stored corpus
    cases never move.
    """

    min_body_ops: int = 4
    max_body_ops: int = 16
    min_iterations: int = 6
    max_iterations: int = 24
    data_words: int = 32
    #: Probability per body slot of a ``call`` to a small leaf helper
    #: routine (stack traffic: push/pop + ret/call return stack).  The
    #: only generator path that reaches the ``nop`` pass and call/ret
    #: frames; 0.0 keeps the legacy draw sequence.
    call_weight: float = 0.0


@dataclass
class FuzzProgram:
    """A generated program genome (JSON-serializable, shrinker-editable).

    ``helpers`` is nonzero only for ``call_weight`` genomes; the JSON
    form omits it when zero so legacy corpus cases keep their content
    keys.
    """

    seed: int
    iterations: int
    alias_delta: int
    reg_init: dict[str, int]
    data: list[int]
    ops: list[dict] = field(default_factory=list)
    #: Number of callable leaf helper routines emitted after the body.
    helpers: int = 0

    def copy(self) -> "FuzzProgram":
        return FuzzProgram(
            seed=self.seed,
            iterations=self.iterations,
            alias_delta=self.alias_delta,
            reg_init=dict(self.reg_init),
            data=list(self.data),
            ops=[dict(op) for op in self.ops],
            helpers=self.helpers,
        )


def program_to_json(program: FuzzProgram) -> dict:
    """Genome → plain dict (stable key order handled by the corpus)."""
    payload = {
        "version": 1,
        "seed": program.seed,
        "iterations": program.iterations,
        "alias_delta": program.alias_delta,
        "reg_init": dict(program.reg_init),
        "data": list(program.data),
        "ops": [dict(op) for op in program.ops],
    }
    # Emitted only when present: legacy genomes stay byte-identical, so
    # corpus content keys computed before the field existed still match.
    if program.helpers:
        payload["helpers"] = program.helpers
    return payload


def program_from_json(payload: dict) -> FuzzProgram:
    """Plain dict → genome (inverse of :func:`program_to_json`)."""
    version = payload.get("version", 1)
    if version != 1:
        raise ValueError(f"unsupported fuzz program version {version!r}")
    if "inner_spans" in payload:
        raise ValueError(
            "fuzz program carries inner_spans (nested inner loops), which "
            "this generator no longer renders"
        )
    return FuzzProgram(
        seed=int(payload["seed"]),
        iterations=int(payload["iterations"]),
        alias_delta=int(payload["alias_delta"]),
        reg_init={k: int(v) for k, v in payload["reg_init"].items()},
        data=[int(w) for w in payload["data"]],
        ops=[dict(op) for op in payload["ops"]],
        helpers=int(payload.get("helpers", 0)),
    )


# --------------------------------------------------------------- generation


def _value_operand(rng: random.Random, *, imm_chance: float = 0.5) -> dict:
    """A source operand: immediate (from the boundary pool) or register."""
    if rng.random() < imm_chance:
        return {"imm": rng.choice(_IMM_POOL)}
    return {"reg": rng.choice(READ_REGS)}


def _mem_site(rng: random.Random) -> tuple[str, int]:
    return rng.choice(("esi", "edi")), rng.choice(_DISP_POOL)


def _gen_op(rng: random.Random) -> dict:
    """One random body op record."""
    kind = rng.choices(
        (
            "alu", "alu_m", "flag", "mov", "load", "store", "movx",
            "lea", "shift", "unary", "cdq", "push_pop", "branch",
        ),
        weights=(18, 6, 6, 8, 12, 14, 8, 4, 7, 6, 2, 3, 12),
    )[0]

    if kind == "alu":
        op = rng.choice(_ALU_OPS)
        src: dict
        roll = rng.random()
        if roll < 0.30:
            base, disp = _mem_site(rng)
            src = {"mem": [base, disp]}
        elif roll < 0.65:
            src = {"reg": rng.choice(READ_REGS)}
        else:
            src = {"imm": rng.choice(_IMM_POOL)}
        return {"kind": kind, "op": op, "dst": rng.choice(SCRATCH_REGS), "src": src}
    if kind == "alu_m":
        base, disp = _mem_site(rng)
        return {
            "kind": kind,
            "op": rng.choice(_ALU_MEM_OPS),
            "base": base,
            "disp": disp,
            "src": _value_operand(rng),
        }
    if kind == "flag":
        return {
            "kind": kind,
            "op": rng.choice(("cmp", "test")),
            "left": rng.choice(READ_REGS),
            "right": _value_operand(rng),
        }
    if kind == "mov":
        return {
            "kind": kind,
            "dst": rng.choice(SCRATCH_REGS),
            "src": _value_operand(rng),
        }
    if kind == "load":
        base, disp = _mem_site(rng)
        return {"kind": kind, "dst": rng.choice(SCRATCH_REGS), "base": base, "disp": disp}
    if kind == "store":
        base, disp = _mem_site(rng)
        return {
            "kind": kind,
            "base": base,
            "disp": disp,
            "size": rng.choices((1, 2, 4), weights=(1, 1, 2))[0],
            "src": _value_operand(rng, imm_chance=0.3),
        }
    if kind == "movx":
        base, disp = _mem_site(rng)
        return {
            "kind": kind,
            "op": rng.choice(("movzx", "movsx")),
            "dst": rng.choice(SCRATCH_REGS),
            "base": base,
            "disp": disp,
            "size": rng.choice((1, 2)),
        }
    if kind == "lea":
        index = rng.choice((None,) + SCRATCH_REGS)
        return {
            "kind": kind,
            "dst": rng.choice(SCRATCH_REGS),
            "base": rng.choice(("esi", "edi", "eax", "ebx")),
            "index": index,
            "scale": rng.choice((1, 2, 4, 8)) if index else 1,
            "disp": rng.choice(_DISP_POOL),
        }
    if kind == "shift":
        count: dict
        if rng.random() < 0.25:
            count = {"reg": "ecx"}  # loop counter: varies per iteration
        else:
            count = {"imm": rng.choice((0, 1, 2, 3, 4, 7, 8, 15, 16, 24, 31))}
        return {
            "kind": kind,
            "op": rng.choice(_SHIFT_OPS),
            "dst": rng.choice(SCRATCH_REGS),
            "count": count,
        }
    if kind == "unary":
        return {
            "kind": kind,
            "op": rng.choice(_UNARY_OPS),
            "dst": rng.choice(SCRATCH_REGS),
        }
    if kind == "cdq":
        return {"kind": kind}
    if kind == "push_pop":
        return {
            "kind": kind,
            "src": rng.choice(SCRATCH_REGS),
            "dst": rng.choice(SCRATCH_REGS),
        }
    # branch: a forward skip over the next `skip` ops, with a test recipe
    # whose bias the generator controls.
    recipe = rng.choices(("ctr", "const", "data"), weights=(5, 3, 2))[0]
    if recipe == "ctr":
        # cmp ecx, k — direction constant until ECX approaches k.
        test = {"op": "cmp", "left": "ecx", "right": {"imm": rng.choice((1, 2, 3))}}
        cond = rng.choice(("g", "ge", "a", "ae", "nz", "le", "l", "b", "be", "z"))
    elif recipe == "const":
        reg = rng.choice(READ_REGS)
        test = {"op": "test", "left": reg, "right": {"reg": reg}}
        cond = rng.choice(_CONDS)
    else:
        test = {
            "op": rng.choice(("cmp", "test")),
            "left": rng.choice(READ_REGS),
            "right": _value_operand(rng),
        }
        cond = rng.choice(_CONDS)
    return {
        "kind": "branch",
        "test": test,
        "cond": cond,
        "skip": rng.randint(1, 3),
    }


def generate_program(
    seed: int, config: GeneratorConfig | None = None
) -> FuzzProgram:
    """Generate one program genome from ``seed`` (deterministic).

    With a default (legacy) config the draw sequence is exactly the
    historical one, so seeds reproduce old genomes bit-for-bit; a
    nonzero ``call_weight`` draws a helper count and then a call-or-op
    roll per body slot.
    """
    config = config or GeneratorConfig()
    rng = random.Random(seed)
    reg_init = {
        reg: (
            rng.choice(_IMM_POOL) & 0xFFFF_FFFF
            if rng.random() < 0.5
            else rng.getrandbits(32)
        )
        for reg in SCRATCH_REGS
    }
    data = [
        rng.choice(_IMM_POOL) & 0xFFFF_FFFF
        if rng.random() < 0.3
        else rng.getrandbits(32)
        for _ in range(config.data_words)
    ]
    body_len = rng.randint(config.min_body_ops, config.max_body_ops)
    if config.call_weight > 0.0:
        helpers = rng.randint(1, 3)
        ops = [
            {"kind": "call", "helper": rng.randrange(helpers)}
            if rng.random() < config.call_weight
            else _gen_op(rng)
            for _ in range(body_len)
        ]
    else:
        helpers = 0
        ops = [_gen_op(rng) for _ in range(body_len)]
    return FuzzProgram(
        seed=seed,
        iterations=rng.randint(config.min_iterations, config.max_iterations),
        alias_delta=rng.choice(_ALIAS_DELTAS),
        reg_init=reg_init,
        data=data,
        ops=ops,
        helpers=helpers,
    )


# ---------------------------------------------------------------- rendering


#: Mnemonics whose Assembler method name carries a trailing underscore.
_ASM_NAME = {"and": "and_", "or": "or_", "not": "not_"}


class RenderError(Exception):
    """Raised for genomes that cannot be rendered (shrinker artifacts)."""


def _reg(name: str) -> Reg:
    try:
        return Reg[name.upper()]
    except KeyError as exc:
        raise RenderError(f"unknown register {name!r}") from exc


def _src_operand(src: dict):
    if "imm" in src:
        return Imm(int(src["imm"]))
    if "reg" in src:
        return _reg(src["reg"])
    raise RenderError(f"malformed source operand {src!r}")


def _render_op(asm: Assembler, op: dict, index: int) -> None:
    kind = op["kind"]
    if kind == "alu":
        emit = getattr(asm, _ASM_NAME.get(op["op"], op["op"]))
        src = op["src"]
        if "mem" in src:
            base, disp = src["mem"]
            operand = mem(_reg(base), disp=int(disp))
        else:
            operand = _src_operand(src)
        emit(_reg(op["dst"]), operand)
    elif kind == "alu_m":
        emit = getattr(asm, _ASM_NAME.get(op["op"], op["op"]))
        emit(mem(_reg(op["base"]), disp=int(op["disp"])), _src_operand(op["src"]))
    elif kind == "flag":
        emit = asm.cmp if op["op"] == "cmp" else asm.test
        emit(_reg(op["left"]), _src_operand(op["right"]))
    elif kind == "mov":
        asm.mov(_reg(op["dst"]), _src_operand(op["src"]))
    elif kind == "load":
        asm.mov(_reg(op["dst"]), mem(_reg(op["base"]), disp=int(op["disp"])))
    elif kind == "store":
        asm.mov(
            mem(_reg(op["base"]), disp=int(op["disp"]), size=int(op["size"])),
            _src_operand(op["src"]),
        )
    elif kind == "movx":
        emit = asm.movzx if op["op"] == "movzx" else asm.movsx
        emit(
            _reg(op["dst"]),
            mem(_reg(op["base"]), disp=int(op["disp"]), size=int(op["size"])),
        )
    elif kind == "lea":
        index_reg = _reg(op["index"]) if op.get("index") else None
        asm.lea(
            _reg(op["dst"]),
            mem(
                _reg(op["base"]),
                index=index_reg,
                scale=int(op.get("scale", 1)),
                disp=int(op.get("disp", 0)),
            ),
        )
    elif kind == "shift":
        emit = getattr(asm, op["op"])
        count = op["count"]
        emit(
            _reg(op["dst"]),
            Imm(int(count["imm"])) if "imm" in count else _reg(count["reg"]),
        )
    elif kind == "unary":
        emit = {
            "neg": asm.neg, "not": asm.not_, "inc": asm.inc, "dec": asm.dec,
        }[op["op"]]
        emit(_reg(op["dst"]))
    elif kind == "cdq":
        asm.cdq()
    elif kind == "push_pop":
        asm.push(_reg(op["src"]))
        asm.pop(_reg(op["dst"]))
    elif kind == "call":
        asm.call(f"helper_{int(op['helper'])}")
    elif kind == "branch":
        test = op["test"]
        emit = asm.cmp if test["op"] == "cmp" else asm.test
        emit(_reg(test["left"]), _src_operand(test["right"]))
        asm.jcc(Cond(op["cond"]), f"skip_{index}")
    else:
        raise RenderError(f"unknown op kind {kind!r}")


def render_program(program: FuzzProgram) -> Program:
    """Render a genome into an assembled :class:`Program`.

    ``call`` ops target leaf helper routines appended after the
    epilogue.
    """
    for op in program.ops:
        if op["kind"] == "call" and not (
            0 <= int(op.get("helper", -1)) < program.helpers
        ):
            raise RenderError(f"call op references missing helper: {op!r}")

    asm = Assembler()
    asm.mov(Reg.ESI, Imm(DATA_BASE))
    asm.mov(Reg.EDI, Imm(DATA_BASE + program.alias_delta))
    for name in SCRATCH_REGS:
        asm.mov(_reg(name), Imm(program.reg_init.get(name, 0) & 0xFFFF_FFFF))
    asm.mov(Reg.ECX, Imm(max(1, program.iterations)))
    asm.label("loop")

    # Forward-branch targets: branch op i jumps over the next `skip` ops,
    # so its label lands just before op i+1+skip, clamped to the body end.
    pending: dict[int, list[str]] = {}
    count = len(program.ops)
    for i, op in enumerate(program.ops):
        if op["kind"] == "branch":
            target = max(min(i + 1 + int(op["skip"]), count), i + 1)
            pending.setdefault(target, []).append(f"skip_{i}")
    for j, op in enumerate(program.ops):
        for name in pending.pop(j, ()):
            asm.label(name)
        _render_op(asm, op, j)
    for name in pending.pop(count, ()):
        asm.label(name)

    asm.dec(Reg.ECX)
    asm.jcc(Cond.NZ, "loop")
    for offset, name in enumerate(SCRATCH_REGS):
        asm.mov(mem(Reg.ESI, disp=RESULT_DISP + 4 * offset), _reg(name))
    asm.ret()
    for helper in range(program.helpers):
        site = RESULT_DISP + 4 * len(SCRATCH_REGS) + 8 * helper
        asm.label(f"helper_{helper}")
        asm.push(Reg.EBP)
        asm.mov(Reg.EBP, mem(Reg.ESI, disp=site))
        asm.add(Reg.EBP, Imm(helper + 1))
        asm.mov(mem(Reg.ESI, disp=site + 4), Reg.EBP)
        asm.pop(Reg.EBP)
        asm.ret()
    asm.data_words(DATA_BASE, program.data)
    return asm.assemble()
