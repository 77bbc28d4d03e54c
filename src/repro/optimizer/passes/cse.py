"""Common-subexpression elimination, including redundant-load elimination
(paper §3.4, §6.4 "no CSE").

Value-numbers pure operations and removes later duplicates.  For loads —
the pass's primary payoff on x86, where unrolled loops re-load the same
location — a later load of a symbolically identical address is replaced
by the earlier load's value, provided no intervening store can alias.
When an intervening store's relationship is statically unknown but the
constructing execution observed no alias, the optimizer *speculates*: the
load is removed and the intervening stores are marked unsafe (§3.4).

Flag-writing duplicates are removed only when their flag consumers can be
soundly rewired: identical ops on identical operands produce identical
flag words, so flag uses of the duplicate move to the original.
"""

from __future__ import annotations

from repro.uops.uop import UopOp
from repro.optimizer.buffer import OptimizationBuffer
from repro.optimizer.optuop import DefRef
from repro.optimizer.passes.base import OptContext, Pass
from repro.optimizer.alias import MUST_ALIAS, NO_ALIAS, classify_alias, observed_disjoint, same_address

_PURE_OPS = frozenset(
    {
        UopOp.LIMM,
        UopOp.ADD,
        UopOp.SUB,
        UopOp.AND,
        UopOp.OR,
        UopOp.XOR,
        UopOp.SHL,
        UopOp.SHR,
        UopOp.SAR,
        UopOp.MUL,
        UopOp.NEG,
        UopOp.NOT,
        UopOp.SEXT,
        UopOp.LEA,
    }
)
_LOAD = UopOp.LOAD  # a global: see ``repro.uops.uop.UopOp``


class CommonSubexpression(Pass):
    name = "cse"

    def run(self, buf: OptimizationBuffer, ctx: OptContext) -> int:
        changes = 0
        changes += self._cse_alu(buf, ctx)
        changes += self._eliminate_redundant_loads(buf, ctx)
        return changes

    # ----------------------------------------------------------- ALU CSE

    def _cse_alu(self, buf: OptimizationBuffer, ctx: OptContext) -> int:
        changes = 0
        seen: dict[tuple, int] = {}
        uops = buf.uops
        for uop in uops:
            if uop.op not in _PURE_OPS or not uop.valid:
                continue
            slot = uop.slot
            # The value's identity: operands and immediates.  CF flows
            # through INC/DEC-style ops (and whole flag words through
            # possibly-zero-count shifts): then the flag *output* depends
            # on the incoming flags definition, so that is part of it.
            key = (uop.op, uop.src_a, uop.src_b, uop.imm, uop.scale, uop.size)
            if uop.writes_flags and uop.reads_flags:
                key += (("flags-in", uop.flags_src),)
            original = seen.get(key)
            if original is None or not uops[original].valid:
                seen[key] = slot
                continue
            if not ctx.can_fold(buf, original, slot):
                continue
            if uop.writes_flags:
                original_uop = uops[original]
                if not original_uop.writes_flags:
                    if uop.reads_flags:
                        # Flag output depends on incoming flags (INC/DEC,
                        # possibly-zero-count shifts): the original would
                        # compute it from a different flag context.
                        continue
                    # Promote the original to flag producer: identical op
                    # and operands yield the identical flag word.
                    original_uop.writes_flags = True
                # Flag consumers (and live-out) read the original instead.
                buf.replace_flags_uses(slot, original)
                uop.writes_flags = False
            # Every use and live-out binding now reads the original, and
            # the duplicate writes no flags: it is dead.
            buf.replace_all_uses(slot, DefRef(original))
            buf.invalidate(slot)
            changes += 1
        return changes

    # ----------------------------------------------------- redundant loads

    def _eliminate_redundant_loads(
        self, buf: OptimizationBuffer, ctx: OptContext
    ) -> int:
        changes = 0
        mem_slots = buf.mem_slots()
        for position, slot in enumerate(mem_slots):
            load = buf.uops[slot]
            if load.op is not _LOAD or not load.valid:
                continue
            match = self._find_covering_load(buf, ctx, mem_slots, position)
            if match is None:
                continue
            original_slot, speculative_stores = match
            for store_slot in speculative_stores:
                store = buf.uops[store_slot]
                if not store.unsafe:
                    store.unsafe = True
                    ctx.stats.stores_marked_unsafe += 1
                store.unsafe_guards.append(original_slot)
            buf.replace_all_uses(slot, DefRef(original_slot))
            buf.invalidate(slot)
            ctx.stats.loads_removed += 1
            if speculative_stores:
                ctx.stats.loads_removed_speculatively += 1
            changes += 1
        return changes

    def _find_covering_load(
        self,
        buf: OptimizationBuffer,
        ctx: OptContext,
        mem_slots: list[int],
        position: int,
    ) -> tuple[int, list[int]] | None:
        """Walk earlier memory uops looking for an identical prior load.

        Returns (covering load slot, stores to mark unsafe) or None.
        """
        uops = buf.uops
        load = uops[mem_slots[position]]
        speculative: list[int] = []
        for index in range(position - 1, -1, -1):
            earlier_slot = mem_slots[index]
            earlier = uops[earlier_slot]
            if not earlier.valid:
                continue
            if earlier.op is _LOAD:
                if (
                    same_address(earlier, load)
                    and earlier.sign_extend == load.sign_extend
                    and ctx.can_fold(buf, earlier_slot, load.slot)
                ):
                    return earlier_slot, speculative
                continue
            verdict = classify_alias(earlier, load)
            if verdict is NO_ALIAS:
                continue
            if verdict is MUST_ALIAS:
                return None  # value changed (store forwarding's job)
            # MAY alias: speculate past it if the constructing execution
            # observed disjoint addresses, else give up.
            if ctx.speculation and observed_disjoint(earlier, load):
                speculative.append(earlier_slot)
                continue
            return None
        return None
