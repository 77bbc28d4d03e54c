"""State Verifier: frame-boundary equivalence checks (paper §5.1.3)."""

import pytest

from helpers import inject, region_frame, run_program
from repro.optimizer import FrameOptimizer
from repro.optimizer.optuop import LiveIn
from repro.uops import UReg
from repro.verify import ArchState, MemoryMaps, StateVerifier, VerificationError
from repro.verify.frame_exec import execute_frame
from repro.x86 import Assembler, Cond, Imm, Reg, mem


def build_region(asm_builder, start_offset=0, count=None):
    """Run a program, frame-ify [start, start+count), return pieces."""
    program, _, trace = run_program(asm_builder)
    injected = inject(trace)
    count = count or len(injected) - 1
    frame = region_frame(injected, start_offset, count)
    frame.build_buffer()
    state = ArchState()
    for record in injected.records[:start_offset]:
        state.apply_record(record)
    records = injected.records[start_offset : start_offset + count]
    return frame, records, state


def stack_program():
    asm = Assembler()
    asm.data_words(0x500000, [11, 22, 33])
    asm.mov(Reg.ESI, Imm(0x500000))
    asm.push(Reg.ESI)
    asm.mov(Reg.EAX, mem(Reg.ESI))
    asm.add(Reg.EAX, mem(Reg.ESI, disp=4))
    asm.pop(Reg.EBX)
    asm.mov(mem(Reg.ESI, disp=8), Reg.EAX)
    asm.ret()
    return asm


def test_unoptimized_frame_verifies():
    frame, records, state = build_region(stack_program())
    verifier = StateVerifier()
    verifier.verify_frame_instance(frame, records, state)
    assert verifier.instances_checked == 1


def test_optimized_frame_verifies():
    frame, records, state = build_region(stack_program())
    FrameOptimizer().optimize(frame.buffer)
    StateVerifier().verify_frame_instance(frame, records, state)


def test_corrupted_frame_detected_register():
    frame, records, state = build_region(stack_program())
    FrameOptimizer().optimize(frame.buffer)
    # Sabotage: rebind a live-out register to the wrong producer.
    frame.buffer.live_out[UReg.EBX] = LiveIn(UReg.EDI)
    with pytest.raises(VerificationError, match="EBX"):
        StateVerifier().verify_frame_instance(frame, records, state)


def test_corrupted_frame_detected_store():
    frame, records, state = build_region(stack_program())
    FrameOptimizer().optimize(frame.buffer)
    store = next(u for u in frame.buffer.uops if u.valid and u.is_store)
    store.imm = (store.imm or 0) + 4  # store lands at the wrong address
    with pytest.raises(VerificationError, match="memory"):
        StateVerifier().verify_frame_instance(frame, records, state)


def test_memory_maps_first_load_and_final_store():
    frame, records, state = build_region(stack_program())
    maps = MemoryMaps.from_records(records)
    # The pushed word is written before ever being read: not in initial,
    # but in the final map, the overlay of the state walked over the region.
    esp_after_push = state.regs[int(Reg.ESP)] - 4
    assert esp_after_push not in maps.initial
    final = ArchState(state.regs, state.flags)
    for record in records:
        final.apply_record(record)
    assert esp_after_push in final.overlay
    # Data words are loaded from the initial image.
    assert 0x500000 in maps.initial


def test_frame_exec_detects_uncovered_load():
    frame, records, state = build_region(stack_program())
    outcome_reader = MemoryMaps.from_records(records)

    def broken_reader(address):
        return None  # pretend the initial map is empty

    from repro.verify.frame_exec import FrameExecutionError

    with pytest.raises(FrameExecutionError, match="initial memory map"):
        execute_frame(
            frame.buffer,
            state.live_in_regs(),
            state.live_in_flags(),
            broken_reader,
        )


def test_frame_exec_reports_firing_assertion():
    asm = Assembler()
    asm.mov(Reg.EAX, Imm(1))
    asm.test(Reg.EAX, Reg.EAX)
    asm.jcc(Cond.Z, "skip")  # not taken
    asm.mov(Reg.EBX, Imm(5))
    asm.label("skip")
    asm.mov(Reg.ECX, Imm(6))
    asm.ret()
    frame, records, state = build_region(asm)
    # Force the wrong live-in so the (not-taken) assertion fires.
    state.regs[int(Reg.EAX)] = 0
    maps = MemoryMaps.from_records(records)
    # EAX is set inside the frame... use a frame slice starting after mov.
    outcome = execute_frame(
        frame.buffer,
        state.live_in_regs(),
        state.live_in_flags(),
        maps.read_initial,
    )
    assert not outcome.fired  # EAX is defined inside the frame: no fire


def test_flags_live_out_compared():
    asm = Assembler()
    asm.mov(Reg.EAX, Imm(5))
    asm.cmp(Reg.EAX, Imm(5))  # ZF=1 at the boundary
    asm.ret()
    frame, records, state = build_region(asm, count=2)
    FrameOptimizer().optimize(frame.buffer)
    StateVerifier().verify_frame_instance(frame, records, state)


def test_arch_state_follows_writes(loop_asm):
    program, emulator, trace = run_program(loop_asm)
    state = ArchState()
    for record in trace:
        state.apply_record(record)
    for reg in Reg:
        assert state.regs[reg] == emulator.regs[reg]
    assert state.flags == emulator.flags_word()
