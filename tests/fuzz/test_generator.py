"""Generator determinism, rendering, and the randomness audit."""

import json
import pathlib

import pytest

from repro.fuzz.generator import (
    DATA_BASE,
    RESULT_DISP,
    GeneratorConfig,
    generate_program,
    program_from_json,
    program_to_json,
    render_program,
)
from repro.x86.emulator import Emulator


def test_same_seed_same_genome():
    a = generate_program(1234)
    b = generate_program(1234)
    assert program_to_json(a) == program_to_json(b)


def test_different_seeds_differ():
    assert program_to_json(generate_program(1)) != program_to_json(
        generate_program(2)
    )


def test_genome_json_roundtrip():
    genome = generate_program(99)
    payload = json.loads(json.dumps(program_to_json(genome)))
    again = program_from_json(payload)
    assert program_to_json(again) == program_to_json(genome)


def test_rendering_is_deterministic():
    genome = generate_program(7)
    p1 = render_program(genome)
    p2 = render_program(genome)
    assert {pc: i.mnemonic for pc, i in p1.instructions.items()} == {
        pc: i.mnemonic for pc, i in p2.instructions.items()
    }
    assert p1.data == p2.data


def test_generated_programs_halt():
    for seed in range(50):
        genome = generate_program(seed)
        emulator = Emulator(render_program(genome))
        emulator.run(max_instructions=50_000)
        assert emulator.halted, f"seed {seed} did not halt"


def test_epilogue_spills_are_disjoint_from_body_accesses():
    """RESULT_DISP must clear the largest body access so the final-state
    check always sees the scratch registers."""
    config = GeneratorConfig()
    assert RESULT_DISP >= 64  # max disp 60 + max size 4
    genome = generate_program(3, config)
    emulator = Emulator(render_program(genome))
    records = emulator.run(max_instructions=50_000)
    stored = {
        store.address for rec in records for store in rec.stores
    }
    # All four scratch registers were spilled to the result area.
    for offset in range(4):
        assert DATA_BASE + RESULT_DISP + 4 * offset in stored


def test_randomness_audit_no_module_level_randomness():
    """Every random draw in repro.fuzz flows from an explicit
    ``random.Random(seed)`` instance — the whole campaign must be
    reproducible from its seed alone."""
    package = pathlib.Path("src/repro/fuzz")
    offenders = []
    for path in sorted(package.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            stripped = line.split("#")[0]
            if "random." in stripped and "random.Random" not in stripped:
                offenders.append(f"{path}:{lineno}: {line.strip()}")
            for banned in ("time.time(", "os.urandom", "uuid.", "secrets."):
                if banned in stripped:
                    offenders.append(f"{path}:{lineno}: {line.strip()}")
    assert not offenders, "\n".join(offenders)


def test_call_genome_json_roundtrip():
    genome = generate_program(99, GeneratorConfig(call_weight=0.25))
    assert genome.helpers >= 1
    payload = json.loads(json.dumps(program_to_json(genome)))
    assert program_to_json(program_from_json(payload)) == payload


def test_genome_with_inner_spans_is_rejected():
    payload = program_to_json(generate_program(5))
    payload["inner_spans"] = [[0, 2, 3]]
    with pytest.raises(ValueError, match="inner_spans"):
        program_from_json(payload)
