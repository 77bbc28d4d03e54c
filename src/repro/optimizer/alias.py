"""Memory-aliasing analysis for the optimizer.

Two memory uops are *symbolically equivalent* when their base and index
operands are the same symbols and their scales and displacements are
literally equal (paper §6.4).  When base symbols differ, nothing can be
proved statically; the optimizer may then *speculate* using the aliasing
behaviour observed in the frame's constructing execution (paper §3.4),
marking the bypassed stores as unsafe stores.
"""

from __future__ import annotations

import enum

from repro.optimizer.optuop import OptUop


class AliasClass(enum.Enum):
    """Verdict of the static alias test between two memory uops."""

    NO = "no"  # provably disjoint
    MUST = "must"  # provably overlapping
    MAY = "may"  # statically unknown


# Verdicts as globals: ``AliasClass.NO`` is slow (see ``repro.uops.uop.UopOp``).
NO_ALIAS, MUST_ALIAS, MAY_ALIAS = AliasClass.NO, AliasClass.MUST, AliasClass.MAY


def classify_alias(a: OptUop, b: OptUop) -> AliasClass:
    """Static alias classification of two memory uops."""
    base_a, index_a, scale_a, disp_a = a.address_expr()
    base_b, index_b, scale_b, disp_b = b.address_expr()
    same_symbols = base_a == base_b and index_a == index_b and (
        index_a is None or scale_a == scale_b
    )
    if same_symbols:
        if _ranges_overlap(disp_a, a.size, disp_b, b.size):
            return MUST_ALIAS
        return NO_ALIAS
    return MAY_ALIAS


def same_address(a: OptUop, b: OptUop) -> bool:
    """Symbolic same-address test (paper's equivalence rule)."""
    return a.address_expr() == b.address_expr() and a.size == b.size


def observed_disjoint(a: OptUop, b: OptUop) -> bool:
    """Did the two uops touch disjoint bytes in the constructing execution?

    This is the trace-derived aliasing information that licenses
    speculative store forwarding / redundant-load elimination.
    """
    if a.observed_address is None or b.observed_address is None:
        return False
    return not _ranges_overlap(a.observed_address, a.size, b.observed_address, b.size)


def _ranges_overlap(start_a: int, size_a: int, start_b: int, size_b: int) -> bool:
    return start_a < start_b + size_b and start_b < start_a + size_a
