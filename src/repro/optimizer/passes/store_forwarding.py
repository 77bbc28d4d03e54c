"""Store forwarding (paper §3.2-§3.4, §6.4 "no SF").

A load whose address is symbolically identical to an earlier store's
receives the stored value directly, and the load is removed.  Stores are
never removed ("No optimization removes stores", §3.4).  When a possibly
aliasing store intervenes, the optimizer may speculate if the
constructing execution observed no alias, marking the intervening store
unsafe; a dynamic alias at frame execution time aborts the frame.

Only full-width (4-byte) pairs are forwarded: narrower stores truncate
the source register, so forwarding the register value would resurrect
high-order bits the memory round-trip discards.
"""

from __future__ import annotations

from repro.uops.uop import UopOp
from repro.optimizer.buffer import OptimizationBuffer
from repro.optimizer.passes.base import OptContext, Pass
from repro.optimizer.alias import MUST_ALIAS, NO_ALIAS, classify_alias, observed_disjoint, same_address

_LOAD = UopOp.LOAD  # a global: see ``repro.uops.uop.UopOp``


class StoreForwarding(Pass):
    name = "sf"

    def run(self, buf: OptimizationBuffer, ctx: OptContext) -> int:
        changes = 0
        mem_slots = buf.mem_slots()
        for position, slot in enumerate(mem_slots):
            load = buf.uops[slot]
            if load.op is not _LOAD or not load.valid:
                continue
            if load.size != 4 or load.sign_extend:
                continue
            match = self._find_forwarding_store(buf, ctx, mem_slots, position)
            if match is None:
                continue
            store_slot, speculative_stores = match
            store = buf.uops[store_slot]
            if store.src_data is None:
                continue  # defensive: stores always carry a data operand
            for intervening in speculative_stores:
                unsafe_store = buf.uops[intervening]
                if not unsafe_store.unsafe:
                    unsafe_store.unsafe = True
                    ctx.stats.stores_marked_unsafe += 1
                unsafe_store.unsafe_guards.append(store_slot)
            buf.replace_all_uses(slot, store.src_data)
            buf.invalidate(slot)
            ctx.stats.loads_removed += 1
            if speculative_stores:
                ctx.stats.loads_removed_speculatively += 1
            changes += 1
        return changes

    def _find_forwarding_store(
        self,
        buf: OptimizationBuffer,
        ctx: OptContext,
        mem_slots: list[int],
        position: int,
    ) -> tuple[int, list[int]] | None:
        """Walk earlier stores looking for one covering this load."""
        uops = buf.uops
        load = uops[mem_slots[position]]
        speculative: list[int] = []
        for index in range(position - 1, -1, -1):
            earlier_slot = mem_slots[index]
            earlier = uops[earlier_slot]
            if not earlier.valid or earlier.op is _LOAD:
                continue
            if (
                same_address(earlier, load)
                and earlier.size == 4
                and ctx.can_fold(buf, earlier_slot, load.slot)
            ):
                return earlier_slot, speculative
            verdict = classify_alias(earlier, load)
            if verdict is NO_ALIAS:
                continue
            if verdict is MUST_ALIAS:
                return None  # partial overlap: memory must supply the bytes
            if ctx.speculation and observed_disjoint(earlier, load):
                speculative.append(earlier_slot)
                continue
            return None
        return None
