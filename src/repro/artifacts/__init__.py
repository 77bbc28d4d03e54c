"""Artifact caching and the ordered process-pool fan-out.

Capture once, simulate many times: the expensive pieces of a harness run
(workload emulation, per-config simulation) are cached content-addressed
on disk (:mod:`repro.artifacts.store`, traces encoded by
:mod:`repro.artifacts.codec`), and :mod:`repro.artifacts.runner` keys
them, captures traces and fans tasks out across processes.  The
experiment matrix itself is :class:`repro.harness.figures.ResultMatrix`.
See ``DESIGN.md`` §"Artifact store".
"""

from repro.artifacts.codec import CODEC_VERSION, decode_trace, encode_trace
from repro.artifacts.store import (
    ArtifactStore,
    FORMAT_VERSION,
    content_key,
    default_cache_dir,
)
from repro.artifacts.runner import (
    MatrixTaskError,
    TaskTelemetry,
    compute_trace,
    result_key,
    trace_key,
)

__all__ = [
    "ArtifactStore",
    "CODEC_VERSION",
    "FORMAT_VERSION",
    "MatrixTaskError",
    "TaskTelemetry",
    "compute_trace",
    "content_key",
    "decode_trace",
    "default_cache_dir",
    "encode_trace",
    "result_key",
    "trace_key",
]
