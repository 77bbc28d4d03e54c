"""Artifact caching and parallel experiment orchestration.

Capture once, simulate many times: the expensive pieces of a harness run
(workload emulation, per-config simulation) are cached content-addressed
on disk and fanned out across processes.  See ``DESIGN.md`` §"Artifact
store".
"""

from repro.artifacts.codec import CODEC_VERSION, decode_trace, encode_trace
from repro.artifacts.store import (
    ArtifactStore,
    FORMAT_VERSION,
    content_key,
    default_cache_dir,
)
from repro.artifacts.runner import (
    MatrixRun,
    MatrixTask,
    MatrixTaskError,
    TaskTelemetry,
    compute_cell,
    compute_trace,
    result_key,
    run_matrix,
    trace_key,
)

__all__ = [
    "ArtifactStore",
    "CODEC_VERSION",
    "FORMAT_VERSION",
    "MatrixRun",
    "MatrixTask",
    "MatrixTaskError",
    "TaskTelemetry",
    "compute_cell",
    "compute_trace",
    "content_key",
    "decode_trace",
    "default_cache_dir",
    "encode_trace",
    "result_key",
    "run_matrix",
    "trace_key",
]
