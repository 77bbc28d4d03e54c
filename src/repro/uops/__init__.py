"""rePLay micro-operation ISA: uop format and x86 decode flows.

Uops execute in :mod:`repro.verify.frame_exec`, the one executor the
State Verifier, the fuzz oracle and the decode-flow tests share.
"""

from repro.uops.translate import TranslationError, Translator
from repro.uops.uop import ARCH_REGS, TEMP_REGS, Uop, UopOp, UReg, format_uop

__all__ = [
    "ARCH_REGS",
    "TEMP_REGS",
    "TranslationError",
    "Translator",
    "Uop",
    "UopOp",
    "UReg",
    "format_uop",
]
