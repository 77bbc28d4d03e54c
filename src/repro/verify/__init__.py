"""State verification (paper §5.1.3)."""

from repro.verify.frame_exec import (
    FrameExecutionError,
    FrameOutcome,
    execute_frame,
)
from repro.verify.state import ArchState, MemoryMaps
from repro.verify.verifier import StateVerifier, VerificationError

__all__ = [
    "ArchState",
    "FrameExecutionError",
    "FrameOutcome",
    "MemoryMaps",
    "StateVerifier",
    "VerificationError",
    "execute_frame",
]
