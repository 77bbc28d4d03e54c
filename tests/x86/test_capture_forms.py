"""Capture pins per instruction form.

One small program per (mnemonic, operand kinds) form that the assembler
accepts and the uop translator decodes runs that form over operand
values chosen to reach each flag outcome (zero, sign, carry, overflow,
shift count 0).  The SHA-256 of each program's encoded trace pins
capture byte for byte: record content, ``reg_writes`` order and the
``flags_after`` type.  The workload and fuzz traces leave many of these
forms unexecuted (IDIV, NOP, indirect JMP/CALL, memory-operand INC/DEC,
NEG/NOT, shifts, CMP/TEST, PUSH), so without this table a change to
their semantics would go unnoticed.

Fault cases pin the error message and the records emitted before it.
"""

from __future__ import annotations

import gzip
import hashlib
import itertools

import pytest

from repro.artifacts.codec import encode_trace
from repro.trace.stream import DynamicTrace
from repro.uops.translate import Translator
from repro.x86 import Assembler, Cond, EmulationError, Emulator, Imm, Reg, mem
from repro.x86.instructions import Instruction, Label, Mem, Mnemonic
from repro.x86.registers import MASK32, to_signed

_DATA = 0x0060_0000
_PAGE_END = 0x0060_1000

#: (dst, src) values: zero, carry out, signed overflow both ways, all-ones,
#: shift counts 0, 1, 31 and 33 (masked to 1).
_PAIRS = (
    (0, 0),
    (1, 0xFFFFFFFF),
    (0x7FFFFFFF, 1),
    (0x80000000, 0x80000000),
    (0xFFFFFFFF, 1),
    (0x12345678, 33),
    (5, 7),
    (0x80000000, 0xFFFFFFFF),
)
_VALUES = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0x12345678)

_DST_MEM = mem(Reg.ESI, disp=0)
_SRC_MEM = mem(Reg.ESI, index=Reg.EDI, scale=4, disp=8)  # EDI = 1: [ESI + 12]

_TWO_OPERAND = {
    Mnemonic.ADD: "add",
    Mnemonic.SUB: "sub",
    Mnemonic.AND: "and_",
    Mnemonic.OR: "or_",
    Mnemonic.XOR: "xor",
    Mnemonic.CMP: "cmp",
    Mnemonic.TEST: "test",
    Mnemonic.SHL: "shl",
    Mnemonic.SHR: "shr",
    Mnemonic.SAR: "sar",
}
_UNARY = {
    Mnemonic.INC: "inc",
    Mnemonic.DEC: "dec",
    Mnemonic.NEG: "neg",
    Mnemonic.NOT: "not_",
}


def _imm(value: int) -> Imm:
    return Imm(to_signed(value))


def _prologue(asm: Assembler) -> None:
    asm.data_words(_DATA, [0x11111111 * k & MASK32 for k in range(1, 9)])
    asm.mov(Reg.ESI, Imm(_DATA))
    asm.mov(Reg.EDI, Imm(1))


def _binary(mnemonic: Mnemonic, kinds: str):
    def body(asm: Assembler, labels: dict[str, int]) -> None:
        emit = getattr(asm, _TWO_OPERAND.get(mnemonic, "mov"))
        if mnemonic is Mnemonic.IMUL:
            emit = asm.imul
        for a, b in _PAIRS:
            if kinds[0] == "R":
                asm.mov(Reg.EAX, _imm(a))
                dst = Reg.EAX
            else:
                asm.mov(_DST_MEM, _imm(a))
                dst = _DST_MEM
            if kinds[1] == "R":
                asm.mov(Reg.ECX, _imm(b))
                src = Reg.ECX
            elif kinds[1] == "I":
                src = _imm(b)
            else:
                asm.mov(_SRC_MEM, _imm(b))
                src = _SRC_MEM
            emit(dst, src)

    return body


def _unary(mnemonic: Mnemonic, kind: str):
    def body(asm: Assembler, labels: dict[str, int]) -> None:
        emit = getattr(asm, _UNARY[mnemonic])
        for a in _VALUES:
            if kind == "R":
                asm.mov(Reg.EBX, _imm(a))
                emit(Reg.EBX)
            else:
                asm.mov(_DST_MEM, _imm(a))
                emit(_DST_MEM)

    return body


def _sized_mov(kinds: str, size: int):
    def body(asm: Assembler, labels: dict[str, int]) -> None:
        for value in _VALUES:
            if kinds == "MR":
                asm.mov(Reg.EDX, _imm(value))
                asm.mov(mem(Reg.ESI, disp=3, size=size), Reg.EDX)
            elif kinds == "MI":
                asm.mov(mem(Reg.ESI, disp=3, size=size), _imm(value))
            else:  # RM
                asm.mov(mem(Reg.ESI, disp=3), _imm(value))
                asm.mov(Reg.EDX, mem(Reg.ESI, disp=3, size=size))
            asm.mov(Reg.EAX, mem(Reg.ESI))

    return body


def _extend(mnemonic: Mnemonic, size: int):
    def body(asm: Assembler, labels: dict[str, int]) -> None:
        emit = asm.movzx if mnemonic is Mnemonic.MOVZX else asm.movsx
        for value in (0x7F, 0x80, 0xFF, 0x7FFF, 0x8000, 0xFFFF, 0x12345678):
            asm.mov(mem(Reg.ESI, disp=5), Imm(value))
            emit(Reg.EAX, mem(Reg.ESI, disp=5, size=size))
            emit(Reg.EAX, mem(Reg.ESI, disp=5, size=size))  # same value again

    return body


def _mov_rr(asm: Assembler, labels: dict[str, int]) -> None:
    for value in _VALUES:
        asm.mov(Reg.EBX, _imm(value))
        asm.mov(Reg.EAX, Reg.EBX)
        asm.mov(Reg.EAX, Reg.EBX)  # writes an unchanged value


def _mov_ri(asm: Assembler, labels: dict[str, int]) -> None:
    for value in _VALUES:
        asm.mov(Reg.EAX, _imm(value))
        asm.mov(Reg.EAX, _imm(value))


def _lea(asm: Assembler, labels: dict[str, int]) -> None:
    asm.lea(Reg.EAX, mem(Reg.ESI, index=Reg.EDI, scale=8, disp=-8))
    asm.lea(Reg.EBX, mem(index=Reg.EDI, scale=2, disp=0x1000))
    asm.lea(Reg.ECX, mem(disp=-4))
    asm.lea(Reg.EDX, mem(Reg.ESI))
    asm.mov(Reg.EBP, Imm(-1))
    asm.lea(Reg.EBP, mem(Reg.EBP, disp=2))  # wraps to 1


def _idiv(kind: str):
    triples = (  # (EAX, EDX, divisor)
        (7, 0, 2),
        (to_signed(-7) & MASK32, MASK32, 2),
        (100, 0, MASK32 - 2),
        (0x80000000, MASK32, 1),  # quotient -2^31, the lowest that fits
        (0x7FFFFFFF, 0, 1),  # quotient 2^31 - 1, the highest that fits
        (0x12345678, 0x1234, 0x10000),
        # Dividends wider than a double's mantissa, where a float
        # division rounds the quotient 1684919826 up by one.
        (0x9299168D, 0x1FDAB34E, 0x5132D8FA),
        (0x9299168D, 0x1FDAB34E, to_signed(-0x5132D8FA) & MASK32),
    )

    def body(asm: Assembler, labels: dict[str, int]) -> None:
        for eax, edx, divisor in triples:
            asm.mov(Reg.EAX, _imm(eax))
            asm.mov(Reg.EDX, _imm(edx))
            if kind == "R":
                asm.mov(Reg.EBX, _imm(divisor))
                asm.idiv(Reg.EBX)
            else:
                asm.mov(_SRC_MEM, _imm(divisor))
                asm.idiv(_SRC_MEM)

    return body


def _cdq(asm: Assembler, labels: dict[str, int]) -> None:
    for value in _VALUES:
        asm.mov(Reg.EAX, _imm(value))
        asm.cdq()


def _push(kind: str):
    def body(asm: Assembler, labels: dict[str, int]) -> None:
        for value in _VALUES:
            if kind == "R":
                asm.mov(Reg.EBX, _imm(value))
                asm.push(Reg.EBX)
            elif kind == "I":
                asm.push(_imm(value))
            else:
                asm.mov(_SRC_MEM, _imm(value))
                asm.push(_SRC_MEM)
            asm.add(Reg.ESP, Imm(4))

    return body


def _pop(asm: Assembler, labels: dict[str, int]) -> None:
    for value in _VALUES:
        asm.push(_imm(value))
        asm.pop(Reg.EAX)
    asm.push(Reg.EAX)
    asm.pop(Reg.EAX)  # pops the value EAX already holds


def _transfer(mnemonic: Mnemonic, kind: str):
    """CALL/JMP through a label, a register and memory, three times each."""

    def body(asm: Assembler, labels: dict[str, int]) -> None:
        emit = asm.call if mnemonic is Mnemonic.CALL else asm.jmp
        for k in range(3):
            name = f"t{k}"
            target = labels.get(name, 0x0040_0000)
            if kind == "L":
                emit(name)
            elif kind == "R":
                asm.mov(Reg.EAX, Imm(target))
                emit(Reg.EAX)
            else:
                asm.mov(_SRC_MEM, Imm(target))
                emit(_SRC_MEM)
            if mnemonic is Mnemonic.CALL:
                asm.jmp(f"after{k}")
            asm.label(name)
            asm.add(Reg.EBX, Imm(1))
            if mnemonic is Mnemonic.CALL:
                asm.ret()
                asm.label(f"after{k}")

    return body


def _ret(asm: Assembler, labels: dict[str, int]) -> None:
    asm.call("leaf")
    asm.call("leaf")
    asm.jmp("done")
    asm.label("leaf")
    asm.ret()
    asm.label("done")


def _jcc(asm: Assembler, labels: dict[str, int]) -> None:
    k = 0
    for cond in Cond:
        for a, b in _PAIRS:
            asm.mov(Reg.EAX, _imm(a))
            asm.cmp(Reg.EAX, _imm(b))
            asm.jcc(cond, f"j{k}")
            asm.inc(Reg.EBX)
            asm.label(f"j{k}")
            k += 1
    asm.test(Reg.EBX, Reg.EBX)
    asm.jcc(Cond.NZ, "same")  # target equals fall-through
    asm.label("same")


def _nop(asm: Assembler, labels: dict[str, int]) -> None:
    asm.nop()
    asm.inc(Reg.EAX)
    asm.nop()


def _straddle(asm: Assembler, labels: dict[str, int]) -> None:
    """Loads and stores that cross a page boundary."""
    asm.data_words(_PAGE_END - 4, [0x44332211, 0x88776655])
    asm.mov(Reg.ESI, Imm(_PAGE_END - 2))
    asm.mov(Reg.EAX, mem(Reg.ESI))
    asm.movzx(Reg.EBX, mem(Reg.ESI, disp=1, size=2))
    asm.mov(Reg.ECX, Imm(0xCAFEBABE))
    asm.mov(mem(Reg.ESI, disp=-1), Reg.ECX)
    asm.mov(mem(Reg.ESI, disp=1, size=2), Reg.ECX)
    asm.add(mem(Reg.ESI), Imm(0x01010101))
    asm.mov(Reg.EDX, mem(Reg.ESI, disp=-2))
    asm.mov(Reg.EDI, mem(Reg.ESI, disp=2))


def _form_builders() -> dict[str, object]:
    forms: dict[str, object] = {}
    for mnemonic in (*_TWO_OPERAND, Mnemonic.MOV, Mnemonic.IMUL):
        name = mnemonic.value
        pairs = ("RR", "RI", "RM", "MR", "MI", "MM")
        if mnemonic is Mnemonic.MOV:
            pairs = ("RM", "MR", "MI")
        elif mnemonic is Mnemonic.IMUL:
            pairs = ("RR", "RI", "RM")
        for kinds in pairs:
            forms[f"{name} {kinds}"] = _binary(mnemonic, kinds)
    forms["mov RR"] = _mov_rr
    forms["mov RI"] = _mov_ri
    for size in (1, 2):
        for kinds in ("RM", "MR", "MI"):
            forms[f"mov {kinds}{8 * size}"] = _sized_mov(kinds, size)
    for mnemonic in (Mnemonic.MOVZX, Mnemonic.MOVSX):
        for size in (1, 2, 4):
            forms[f"{mnemonic.value} RM{8 * size}"] = _extend(mnemonic, size)
    for mnemonic in _UNARY:
        for kind in "RM":
            forms[f"{mnemonic.value} {kind}"] = _unary(mnemonic, kind)
    forms["lea RM"] = _lea
    forms["idiv R"] = _idiv("R")
    forms["idiv M"] = _idiv("M")
    forms["cdq"] = _cdq
    for kind in "RIM":
        forms[f"push {kind}"] = _push(kind)
    forms["pop R"] = _pop
    for mnemonic in (Mnemonic.CALL, Mnemonic.JMP):
        for kind in "LRM":
            forms[f"{mnemonic.value} {kind}"] = _transfer(mnemonic, kind)
    forms["ret"] = _ret
    forms["jcc L"] = _jcc
    forms["nop"] = _nop
    forms["page-straddling load and store"] = _straddle
    return forms


_FORMS = _form_builders()


def _assemble(body) -> object:
    """Assemble twice: the second pass sees the first pass's labels, so
    indirect targets (loaded as 4-byte immediates) hit real addresses."""
    labels: dict[str, int] = {}
    for _ in range(2):
        asm = Assembler()
        _prologue(asm)
        body(asm, labels)
        asm.ret()
        program = asm.assemble()
        labels = program.labels
    return program


def _digest(records, name: str) -> str:
    payload = gzip.decompress(encode_trace(DynamicTrace(records, name=name)))
    return hashlib.sha256(payload).hexdigest()


def _records_until_fault(program, message: str) -> list:
    emulator = Emulator(program)
    records = []
    with pytest.raises(EmulationError, match=message):
        while True:
            records.append(emulator.step())
    assert not emulator.halted
    return records


#: SHA-256 of the decompressed ``encode_trace`` payload of each form's
#: program (see ``_digest``).
_FORM_SHA256 = {
    "add MI": "30aeacf34c15ed66ef13186c29a1c2ec5cabb1fc6f604fee56c9dd319f303ade",
    "add MM": "2e28fb88f6ca094782bb500dabc7d68ebc7a0e071faaa3db3a144a38ef717ef9",
    "add MR": "589ffdc54eb509cc4223c5602efc7338b66e054c8f8b8d150199815b3b474043",
    "add RI": "4708a00c9b49085fccc62a1a7d7497605579d5c06a64764c2b61766eb0e09a2e",
    "add RM": "fda812a338b110bd4dff50e858c27df5fe7717d93e3b6781682c81fc42232bc6",
    "add RR": "0453a39820c0dcdb468156713877d277b24b8114e1c2fbf6f8f23aeb1cf9929a",
    "and MI": "76dbdad8d68bd347cbc9c4678da4c1f3f10122231edd54668900d08ac0187bb1",
    "and MM": "550503dc90ec7e2fcd8b66c0b0e6bca38ec44afcb33c08b81e31e760b50a8912",
    "and MR": "36eddb753bc97cb953b30e014ffbc45b8ac630dc3287e92126b17926ac194421",
    "and RI": "ddcf81abf591bbee8899768a21bf8262577f57268f38dace2453aef0d12b297e",
    "and RM": "4666f858de2eb912a04e91ab9b4fcb1b2c39f2b966cdfe42ecb2d4c574ea9bca",
    "and RR": "5d7ca6a807e46cb648c49856d028f3d8542f45a8cfbe70c84f39c6cedfd51846",
    "call L": "99122db6db3d8d6b47ec70dcf4a95b514f6510f0984913887ee512c6466e54ad",
    "call M": "9b4713805aa25e5bff602522ee14c047864e45305a512027da68dfc77cf5b05b",
    "call R": "e35c1195c455735f943bef7f1d9a3d1812d0a3b39cf5fb3354a9a845ca5fff43",
    "cdq": "d88cfe4ad340373ecd0329693a305860f2abed0e859475cbce5bcdab8f99324b",
    "cmp MI": "9e0ebbf639a16117302f6c292d85a28f796e88f519d4c953c8f4a671b662cc1d",
    "cmp MM": "1ec5ccc7c1dd26279efdcab1f5bbb341b5c876a438d17ca9e65c7f3b16da7a34",
    "cmp MR": "bcec98d088a4bb760c1dadd8f8fe1041fe6a0042b6e56f406a3f8d03f47cfdf2",
    "cmp RI": "d331e7e5ecb7b12c3d4938e53084c108bf5389e08d9d132989dba796cba66a0b",
    "cmp RM": "00cc95fc2bedaa1a78e3f7b5ee92bde37d04e6089109a9015e365bb324555913",
    "cmp RR": "c9539e4c3b1ee5a2bf4485a33dab779e9dd09d1e7fded87a447f12de8b8e9706",
    "dec M": "b8db1c6e2da2e2cdd4c6944eea00cb7013aac4349bc13193669711c697295a60",
    "dec R": "dc3727ee419b81cd9d3a8d174edc04e7b77920608f8084aed7a004cba3cd5fd8",
    "idiv M": "7eb7a6cc68cc019de3084356b3380f2dd45681190cc4011c928fd350e2035c36",
    "idiv R": "ed81c3da44a8760125e776663f771d5f3569ea2deab57c05962d329cbfdfaede",
    "imul RI": "ee2610ea12999e641505be891717c63ef2e753608252da58975b79cb30e55a1c",
    "imul RM": "609d2fe7119c6ea4f0002e2566f40dc07e6177d6ee187fda87922f764c02ea5e",
    "imul RR": "cdda5fa9944f149551135d1e6e9c0d2c1d6cc795dd1bdef6bd1bc332dd2e3e0c",
    "inc M": "556aae0fab5b8d70340c85fbd72c2fb019f415228063ea049b00dd9430119eb9",
    "inc R": "541dd8ffc9d60868af9387a45fe3693525016b23da00f5811cb8be5592bc95db",
    "jcc L": "23e6e5b91366b1a800e646d4d5f4013cc3b958ea69d1dd64ea11d53c4663a85e",
    "jmp L": "1564668499d28a6ca4df0462243fe4bbbd6a5997263e52e8d9d8d7295b97e501",
    "jmp M": "49365c57d0308067c74f95cf07bd2f61c8a8042e276ba134c6a610aacaa8a965",
    "jmp R": "9358ef95b70ccb6efc7040b52a4ec8982169c7a2a3eaac0b997e01683527b71c",
    "lea RM": "ae91d41d9e5754019e4301c23e5438f43dd4dda9f69550f5b3756391cecee0f3",
    "mov MI": "76ca5fe5e404d1f6e6dd5cc0c63d20ae44a3b1931c8f028c4966af9878061d8e",
    "mov MI16": "822d5232f67a121e15f8f99c6d0e051d6474a421364b459318d09d8e300802a8",
    "mov MI8": "b00ff5992613dcdfe016ad0ece51bf026627a2fc7a8a72f5ef7e99a8be0f3e4f",
    "mov MR": "71022f016de0b095df9a8c964561648ad4518f99a043e2924ccb8c8f0979c90a",
    "mov MR16": "ec8b6edc49d55e1c4dd04f64d15066efe2aa1be6ca336306e5b337b618b16a3b",
    "mov MR8": "98a9408d32cd56c34d23bed17d52cafcf1a027485b1e6ff88e68dff77cfc11e6",
    "mov RI": "b8ee65bb392282081b9f0b6de16883a677ee413da21c8df564fe64381c172571",
    "mov RM": "c6611e6f95a853e694403692c852dd9c9bd9846eed4360c94d329f9119a5f1a6",
    "mov RM16": "b4b509f1a094dfcba8e2199a4747c2cbaf200c93b1655713ee461b985ec370e2",
    "mov RM8": "154b3e82fbb1f82878f666901cf814e0b9039ae2e8e97f83fe722c0969666d01",
    "mov RR": "9ea0a1b18cfbb201d56109946fe357bacedadf41e3bafd932e5b1cdf3f485883",
    "movsx RM16": "059041776b8b9f9ac0320104fa26dd2b70b5d230c508df51016f92a519910b7a",
    "movsx RM32": "247ffb95727d05121d5a1b90d475b31cd6f1af4303dfaa1223082bcbdc0d9f22",
    "movsx RM8": "5d92afba7363bc4b5cde57f4471c713e54e23e31c8b550fbfd190cfcd26eef17",
    "movzx RM16": "64e9ac62b7d4913c383202f73cd74c447072306cc4e3e5e33f28c1eb7f8cca71",
    "movzx RM32": "f8845a00632e6545cd12dc3d26276c49f665c208d913051860d28045482f1eaa",
    "movzx RM8": "0d1c16b2c72b653411cebecce9d5faaefc54697a60a4ddfc5ee684cb284f0e5c",
    "neg M": "f074783c698d0cdab65e3a243533c4efb0a8b6ba8d5180644d652d5604ca84b4",
    "neg R": "596d8dfca6e33163ddf8f37d71c96149cf4c52718ef3833726a7a42342027caf",
    "nop": "8f432178887a1c90aeb4a21e1c7bdde67f5eb58c7d22102bf3149b44c25d271d",
    "not M": "c3bfea15e0984beffa516dc7b5990a8aeff68ef216e12bb537b91fe9ac8f4d26",
    "not R": "f920edbd7984eba7568d20fea9c1a866299b486c308f9d36e2647eedf5aef4c7",
    "or MI": "b862c0e83fca15fbd807aca786142fc5abc96d6eeb81fbfb90c88d388ad985e0",
    "or MM": "2fed33d3f4b4d180cfa00e3ddecf11f4e779a97f8ac5b8a46cb4c460677c411a",
    "or MR": "fdb7f20c91743e0161c84c11e913117445d7ad4e0186c7d10643c143b76768cb",
    "or RI": "abdd663b3d563fbc055571681128deaabe308d9c51ad0e61c9b3d20d426202fd",
    "or RM": "195e0e5986f7c156d4c74eed306fcc19d9baa7a8a8a1148f3b130fafb4e42ab9",
    "or RR": "b4ab195ebae72362092682703558d8f6ae847deaa5c227088ab058b2381f6c70",
    "page-straddling load and store": "287c2726cea0d16684a221b52b312f42d6b68ef8172b799c46d8a2463a05b3e6",
    "pop R": "3caaf5019c9e38a99271e6e49e84aaa0f45c547846bfff5cc6a8fbb47ca0b1d4",
    "push I": "97ac381fd69e57076693316f3160f3ef59ed9e169d15625b0387a17c7151e5e1",
    "push M": "4fc4e10fb2cbd45f9d62085918ca8645db65b6c464d2a736a34a798da83cf14c",
    "push R": "e2a8fb7b2243482d36240dfbe30cf406250427539963481b5f2ce01915ed0e2d",
    "ret": "0267ce9170eabef10d296a3ecf49b6e33db9c3bfdbdc5c14fe4c0b0a34689559",
    "sar MI": "9e93c37b29f926cd93957c4984433d9f8277c2d849dbcdf16a9a6986d06fcab0",
    "sar MM": "417da19edf11a9b937cdbe68a73fa210267927855f6c19c531254e2d408cde01",
    "sar MR": "9cc194ef3393163532d1563e6cf55b62baaec8386ede92aaf2e6ff626581d75b",
    "sar RI": "518212848b7c39ecc2698f8e16bafeb1e81720a4b568f88a4d56d9bd7b633291",
    "sar RM": "60d03b178c7faf519379e4ad4e783dbab8609206e5559cc26affbd1cd14308bd",
    "sar RR": "ad66aab7d1fa91e6759a26b11b7bd42ffae52acc336229bd151a1cab8d9f9006",
    "shl MI": "e15400858cf9ebbd97cc338179c64bdf654d0c973a41bbcbcadebe04c7be49cd",
    "shl MM": "009daf7daea0dd1a2d3881267710a087e2cf991fa1443af4d4e2cc84a85b8ac7",
    "shl MR": "da96a59e08a4e4397fe12e0e17e913fdc13dcb5c76a99432b859a190a61e28f2",
    "shl RI": "b6ebef52539eed6d508486495728b99ad309e7ff1bf9ccb3eebf37c94fcb62bd",
    "shl RM": "2a4722f062a1c7380e12dc4f0dc07ef0ee0c6babba31331ce84fe75d96c6173c",
    "shl RR": "3ac518e31a62ce9fca80fa20c52e165920d427aaa4cf1a42d5f701a4eca846da",
    "shr MI": "1460ffc99d874e07407c74f656fc685facda7057d7f94212e6ffbc423b7566a0",
    "shr MM": "8e8bcfda3800642b559519c7c35e500ef2b9466010e1ec3d05192372b33ad608",
    "shr MR": "f69121c5f331faa039ea24594e7b10d287731e4fca45d7b7c76f45bab64f46c6",
    "shr RI": "409a8cfd403025687cd83bcba7c34db0a61583381cad11792abe5e70e7b83633",
    "shr RM": "861665c73cc67ccd4d2c6aa0384a85036fe44fdaa0ec56c923d3bc3afbcd91fe",
    "shr RR": "b79cb5b8b6ef449f3e35551af106a4b3ead9ea5a494f3b230dd4127e50d5d5e0",
    "sub MI": "9209b9942603dc6a6fb899a248854cc381c1c624a9d93a22fdcd1e8faa6abd5d",
    "sub MM": "fd9b96c5275a3d9009bbf242b095d5d11d5322a75b601d2a2c0bbfce821dbe1f",
    "sub MR": "a7098cac231a24bdb0d330a4936e9b8318ef5f903104b89732310b31d52c32ff",
    "sub RI": "d48d6f6b0fb2d5e69805f8290b5f6f201a9a351c47fa08e571a2e06ecc8d48b6",
    "sub RM": "dd4d7dbf2011ec84ce23235c8b83446558e0a4bfe5b6aaff1c29a16ed82587b7",
    "sub RR": "ac4384ffc08a73a926c554516c73fffd7972c7b6561417476696a8831f966e0f",
    "test MI": "939b1d2eff664154201295b6890290c4c097620c37561896227286005a3dee52",
    "test MM": "e13391823b7599499563c9e18afbe84614d7ebebf5cae6d08091d9fe81415519",
    "test MR": "42e29d34e0a0e5ee017b178ab1438e0558d3570d65b87fb879b7f1209f6fe017",
    "test RI": "61aa50b51404fae615f018ef62e89d53a03de7584ec5b5b17add24f24a7322b1",
    "test RM": "3190b1f8e2f9bb14cd6daae40e96a5779f79acd3a5c8e135935f9e3c8d04107f",
    "test RR": "b9108f0ee98c3dda1a9e4dea84e5177da2c546b3ae6c941912a2964fed0f8ad4",
    "xor MI": "f1d87c91bcccaae56e8e6c8b10411e7a4db232653050ea173401345d0fc1b943",
    "xor MM": "7ba532a039cea8a226b37e42e0c0c87e477709acd3afcce412dabed4f12bf9ea",
    "xor MR": "2e6edcec943f6b22c047a7dc8dd58cf3b0c8270730b937ccdbb6cdaf0e337ca6",
    "xor RI": "cb87157b4f32a606f66c7b4675c8e6ef209373d75b6c58b41c8e20fa1f9990ae",
    "xor RM": "53b3a41498df437b413fc7c6782ad9703e889eb84d667e274ca83a24c365f8c4",
    "xor RR": "e2a89cbaf371dbb9e0c2cbe07d2f71d24d568bde74501e047955eaa72aba6e1a",
    "fetch with no instruction": "8351958eb25b7331c84f7cd428b12760be09421f4bbdb6126995ae4c06ca2552",
    "idiv M by zero": "b14e942f44bf9908580741fc87342a6246bb7ce07d3d020af329ae725eb3b4c3",
    "idiv M overflow": "fb9a768ea45b65a2fd553f948cd352de678417237f9406a888b023d6c74d4805",
    "idiv R by zero": "313e7cf61b832ae1da2d9de149cb4b2a61c86320ec4313e3a40d8064db1fc402",
    "idiv R overflow": "d27c03a27021ff5f47e0561755cdbd97b778f845057a2bbdb34634bd01f0c302",
    "movsx from a register": "39b916f1df9e1af2286c8271e599ec2c7918ae52f5619c43d5c79015a37c9cfe",
    "movzx from a register": "c717e856a9fc5c6f7174768d831a418f67405ea85e723c7b593d4f71c0b8b251",
}


def test_table_covers_every_decoded_form():
    """Every (mnemonic, operand kinds) the translator decodes, at the
    arity the assembler's method for that mnemonic takes, has a program."""
    operands = {
        "R": Reg.EAX,
        "I": Imm(5),
        "M": Mem(base=Reg.ESI),
        "L": Label("x"),
    }
    arity = {Mnemonic.NOP: 0, Mnemonic.CDQ: 0, Mnemonic.RET: 0}
    for mnemonic in (*_UNARY, Mnemonic.IDIV, Mnemonic.PUSH, Mnemonic.POP):
        arity[mnemonic] = 1
    for mnemonic in (Mnemonic.CALL, Mnemonic.JMP, Mnemonic.JCC):
        arity[mnemonic] = 1
    decoded = set()
    for mnemonic in Mnemonic:
        n = arity.get(mnemonic, 2)
        for kinds in itertools.product("RIML", repeat=n):
            instr = Instruction(
                mnemonic,
                tuple(operands[k] for k in kinds),
                cond=Cond.Z if mnemonic is Mnemonic.JCC else None,
            )
            instr.label_targets = {"x": 0x1000}
            try:
                Translator().translate(instr)
            except Exception:
                continue
            decoded.add(f"{mnemonic.value} {''.join(kinds)}".strip())
    covered = {
        name.rstrip("0123456789")
        for name in _FORMS
        if name != "page-straddling load and store"
    }
    assert covered == decoded


@pytest.mark.parametrize("name", sorted(_FORMS))
def test_form_capture_pinned(name):
    program = _assemble(_FORMS[name])
    emulator = Emulator(program)
    records = emulator.run()
    assert emulator.halted
    assert _digest(records, name) == _FORM_SHA256[name]


_FAULTS = {
    "idiv R by zero": (
        lambda a, labels: (a.mov(Reg.EBX, Imm(0)), a.idiv(Reg.EBX)),
        "division by zero at 0x",
    ),
    "idiv M by zero": (
        lambda a, labels: (a.mov(_SRC_MEM, Imm(0)), a.idiv(_SRC_MEM)),
        "division by zero at 0x",
    ),
    "idiv R overflow": (  # -2^31 / -1: the quotient 2^31 does not fit
        lambda a, labels: (
            a.mov(Reg.EAX, _imm(0x80000000)),
            a.mov(Reg.EDX, _imm(MASK32)),
            a.mov(Reg.EBX, _imm(MASK32)),
            a.idiv(Reg.EBX),
        ),
        "quotient overflow",
    ),
    "idiv M overflow": (  # (2^63 - 1) / 3
        lambda a, labels: (
            a.mov(Reg.EAX, _imm(MASK32)),
            a.mov(Reg.EDX, _imm(0x7FFFFFFF)),
            a.mov(_SRC_MEM, _imm(3)),
            a.idiv(_SRC_MEM),
        ),
        "quotient overflow",
    ),
    "movzx from a register": (
        lambda a, labels: (a.mov(Reg.EBX, Imm(7)), a.movzx(Reg.EAX, Reg.EBX)),
        "MOVZX requires a memory source",
    ),
    "movsx from a register": (
        lambda a, labels: a.movsx(Reg.EAX, Reg.EBX),
        "MOVSX requires a memory source",
    ),
    "fetch with no instruction": (
        lambda a, labels: (a.mov(Reg.EAX, Imm(0x0050_0000)), a.jmp(Reg.EAX)),
        "no instruction at 0x500000",
    ),
}


@pytest.mark.parametrize("name", sorted(_FAULTS))
def test_fault_pinned(name):
    body, message = _FAULTS[name]
    records = _records_until_fault(_assemble(body), message)
    assert _digest(records, name) == _FORM_SHA256[name]
