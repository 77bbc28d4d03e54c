"""Property-based correctness: optimized frames preserve semantics.

For randomly generated straight-line uop frames, optimization at any
scope and with any pass subset must leave the frame's architectural
effects — final registers, final flags, and stored bytes — exactly
unchanged.  This is the machine-checked version of the State Verifier's
guarantee, explored over a much wider input space.
"""

from hypothesis import given, settings, strategies as st

from helpers import buffer_from_uops
from repro.optimizer import FrameOptimizer, OptimizerConfig
from repro.uops import Uop, UopOp, UReg
from repro.verify.frame_exec import execute_frame

ARCH = [UReg(i) for i in range(8)]

_alu_ops = st.sampled_from(
    [UopOp.ADD, UopOp.SUB, UopOp.AND, UopOp.OR, UopOp.XOR, UopOp.MUL]
)
_regs = st.sampled_from(ARCH)
_small_imm = st.integers(min_value=-64, max_value=64)


@st.composite
def uop_strategy(draw):
    kind = draw(st.sampled_from(["alu", "alu_imm", "limm", "mov", "load",
                                 "store", "shift", "nop"]))
    if kind == "alu":
        return Uop(
            draw(_alu_ops),
            dst=draw(_regs),
            src_a=draw(_regs),
            src_b=draw(_regs),
            writes_flags=draw(st.booleans()),
        )
    if kind == "alu_imm":
        return Uop(
            draw(_alu_ops),
            dst=draw(_regs),
            src_a=draw(_regs),
            imm=draw(_small_imm),
            writes_flags=draw(st.booleans()),
        )
    if kind == "limm":
        return Uop(UopOp.LIMM, dst=draw(_regs), imm=draw(_small_imm))
    if kind == "mov":
        return Uop(UopOp.MOV, dst=draw(_regs), src_a=draw(_regs))
    if kind == "load":
        return Uop(
            UopOp.LOAD,
            dst=draw(_regs),
            src_a=draw(st.sampled_from([UReg.ESI, UReg.EDI, UReg.ESP])),
            imm=draw(st.integers(min_value=-16, max_value=16)) * 4,
        )
    if kind == "store":
        return Uop(
            UopOp.STORE,
            src_a=draw(st.sampled_from([UReg.ESI, UReg.EDI, UReg.ESP])),
            imm=draw(st.integers(min_value=-16, max_value=16)) * 4,
            src_data=draw(_regs),
        )
    if kind == "shift":
        return Uop(
            draw(st.sampled_from([UopOp.SHL, UopOp.SHR, UopOp.SAR])),
            dst=draw(_regs),
            src_a=draw(_regs),
            imm=draw(st.integers(min_value=0, max_value=31)),
            writes_flags=draw(st.booleans()),
        )
    return Uop(UopOp.NOP)


frame_strategy = st.lists(uop_strategy(), min_size=2, max_size=24)
regs_strategy = st.lists(
    st.integers(min_value=0, max_value=0xFFFFFFFF), min_size=8, max_size=8
)
flags_strategy = st.tuples(
    st.booleans(), st.booleans(), st.booleans(), st.booleans()
)


def observe(buffer, live_in, flags):
    outcome = execute_frame(buffer, live_in, flags, lambda address: (address * 37) & 0xFF)
    stores = {}
    for address, size, value in outcome.stores:
        for i in range(size):
            stores[(address + i) & 0xFFFFFFFF] = (value >> (8 * i)) & 0xFF
    return outcome.final_regs, outcome.final_flags, stores


@given(frame_strategy, regs_strategy, flags_strategy)
@settings(max_examples=120, deadline=None)
def test_full_optimization_preserves_semantics(uops, reg_values, flags):
    live_in = {UReg(i): reg_values[i] for i in range(8)}
    reference = buffer_from_uops([u.copy() for u in uops])
    expected = observe(reference, live_in, flags)

    optimized = buffer_from_uops([u.copy() for u in uops])
    FrameOptimizer().optimize(optimized)
    assert observe(optimized, live_in, flags) == expected


@given(frame_strategy, regs_strategy, flags_strategy,
       st.sampled_from(["block", "inter", "frame"]))
@settings(max_examples=60, deadline=None)
def test_every_scope_preserves_semantics(uops, reg_values, flags, scope):
    live_in = {UReg(i): reg_values[i] for i in range(8)}
    reference = buffer_from_uops([u.copy() for u in uops])
    expected = observe(reference, live_in, flags)

    optimized = buffer_from_uops([u.copy() for u in uops])
    FrameOptimizer(OptimizerConfig(scope=scope)).optimize(optimized)
    assert observe(optimized, live_in, flags) == expected


@given(frame_strategy, regs_strategy, flags_strategy,
       st.sampled_from(["asst", "cp", "cse", "nop", "ra", "sf"]))
@settings(max_examples=60, deadline=None)
def test_every_ablation_preserves_semantics(uops, reg_values, flags, disabled):
    live_in = {UReg(i): reg_values[i] for i in range(8)}
    reference = buffer_from_uops([u.copy() for u in uops])
    expected = observe(reference, live_in, flags)

    optimized = buffer_from_uops([u.copy() for u in uops])
    FrameOptimizer(OptimizerConfig().disabled(disabled)).optimize(optimized)
    assert observe(optimized, live_in, flags) == expected


@given(frame_strategy)
@settings(max_examples=60, deadline=None)
def test_optimization_never_adds_uops_or_memory_ops(uops):
    buffer = buffer_from_uops([u.copy() for u in uops])
    stores_before = buffer.store_count()
    loads_before = buffer.load_count()
    count_before = buffer.valid_count()
    FrameOptimizer().optimize(buffer)
    assert buffer.valid_count() <= count_before
    assert buffer.store_count() == stores_before  # stores never removed
    assert buffer.load_count() <= loads_before


@given(frame_strategy)
@settings(max_examples=40, deadline=None)
def test_optimization_is_idempotent(uops):
    buffer = buffer_from_uops([u.copy() for u in uops])
    optimizer = FrameOptimizer()
    optimizer.optimize(buffer)
    first = buffer.valid_count()
    optimizer.optimize(buffer)
    assert buffer.valid_count() == first
