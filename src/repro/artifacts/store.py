"""Content-addressed artifact store for captured traces and results.

Emulation is the expensive step meant to be captured once and replayed
many times — the paper's own workflow, where hardware-generated trace
files were produced once and fed to every simulation.  This store makes
that workflow automatic: each artifact (a captured :class:`DynamicTrace`,
or a per-config :class:`ExperimentResult`) lives on disk under a SHA-256
key derived from everything that determines its content (workload
source, seed, configuration fields, format version).  Identical inputs
hit the cache; any change to the inputs changes the key and recomputes.

Durability rules:

* writes are atomic (temp file in the same directory, then
  ``os.replace``) so a crashed or concurrent run never leaves a
  half-written entry visible;
* every entry embeds a SHA-256 checksum of its body; a mismatch moves
  the entry to ``quarantine/`` and reads as a miss — corruption is
  logged and recomputed, never fatal;
* a format-version mismatch (store envelope or trace codec) reads as a
  miss and the stale entry is dropped;
* :meth:`ArtifactStore.gc` evicts least-recently-used entries down to a
  byte budget (``REPRO_UOPT_CACHE_BUDGET_MB`` applies it automatically
  after writes).

Entry envelope::

    magic 'RART' | u16 format version | 32-byte sha256(meta+payload)
    u32 meta length | meta JSON (kind, label, created) | payload
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import struct
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.artifacts import codec
from repro.artifacts.codec import TraceFileError
from repro.trace.stream import DynamicTrace

log = logging.getLogger("repro.artifacts")

#: Bump when the envelope, codec, or cached-object layout changes:
#: old entries then read as misses and are recomputed.
#: v2: SimResult/SequencerStats/OptimizerTotals grew fields (window
#: occupancy, cooldown skips, per-pass change counts) — pickled results
#: from v1 would unpickle without them.
FORMAT_VERSION = 2

MAGIC = b"RART"
_HEADER = struct.Struct("<4sH32sI")  # magic, version, digest, meta length

ENV_CACHE_DIR = "REPRO_UOPT_CACHE_DIR"
ENV_CACHE_BUDGET_MB = "REPRO_UOPT_CACHE_BUDGET_MB"

#: Artifact kinds (subdirectories of the store root).
KIND_TRACE = "trace"
KIND_RESULT = "result"
KIND_FUZZ = "fuzz"  # minimized fuzz regression cases (repro.fuzz.corpus)
KINDS = (KIND_TRACE, KIND_RESULT, KIND_FUZZ)


def default_cache_dir() -> Path:
    """Resolve the cache root: env override, else ``~/.cache/repro-uopt``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-uopt"


def content_key(kind: str, material: dict) -> str:
    """SHA-256 key over canonical-JSON key material.

    ``material`` must be JSON-serializable; the kind and store format
    version are always mixed in, so a format bump invalidates everything.
    """
    canon = json.dumps(
        {"kind": kind, "format": FORMAT_VERSION, "material": material},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class StoreTelemetry:
    """Per-process counters for one store instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    stale: int = 0
    evicted: int = 0
    discard_failed: int = 0


@dataclass(frozen=True)
class EntryInfo:
    """One on-disk cache entry, as listed by ``cache ls``."""

    kind: str
    key: str
    label: str
    created: float
    size_bytes: int
    mtime: float
    path: Path


class ArtifactStore:
    """Content-addressed, checksummed, size-bounded on-disk cache."""

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        budget_bytes: int | None = None,
    ) -> None:
        self.root = Path(root).expanduser() if root else default_cache_dir()
        if budget_bytes is None:
            env = os.environ.get(ENV_CACHE_BUDGET_MB)
            budget_bytes = int(float(env) * 1024 * 1024) if env else None
        self.budget_bytes = budget_bytes
        self.telemetry = StoreTelemetry()

    # ------------------------------------------------------------ layout

    def _entry_path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.art"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    # ------------------------------------------------------------- bytes

    def put_bytes(self, kind: str, key: str, payload: bytes, label: str = "") -> Path:
        """Atomically write one entry (temp file + rename)."""
        meta = json.dumps(
            {"kind": kind, "label": label, "created": time.time()},
            sort_keys=True,
        ).encode("utf-8")
        digest = hashlib.sha256(meta + payload).digest()
        header = _HEADER.pack(MAGIC, FORMAT_VERSION, digest, len(meta))

        path = self._entry_path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".art")
        try:
            with os.fdopen(fd, "wb") as stream:
                stream.write(header)
                stream.write(meta)
                stream.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass  # silent-ok: best-effort temp cleanup; original error re-raised
            raise
        self.telemetry.writes += 1
        if self.budget_bytes is not None:
            self.gc(self.budget_bytes)
        return path

    def get_bytes(self, kind: str, key: str) -> bytes | None:
        """Read and verify one entry; corruption quarantines, never raises."""
        path = self._entry_path(kind, key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            self.telemetry.misses += 1
            return None
        except OSError as exc:
            log.warning("artifact %s unreadable (%s); treating as miss", path, exc)
            self.telemetry.misses += 1
            return None

        payload = self._verify(path, data)
        if payload is None:
            self.telemetry.misses += 1
            return None
        try:
            os.utime(path)  # LRU touch for gc
        except OSError:
            pass  # silent-ok: a failed LRU touch only skews eviction order
        self.telemetry.hits += 1
        return payload

    def _verify(self, path: Path, data: bytes) -> bytes | None:
        """Unwrap an envelope; quarantine corruption, drop stale versions."""
        if len(data) < _HEADER.size:
            self._quarantine(path, "truncated header")
            return None
        magic, version, digest, meta_len = _HEADER.unpack_from(data)
        if magic != MAGIC:
            self._quarantine(path, "bad magic")
            return None
        if version != FORMAT_VERSION:
            # Stale format: a miss (recompute), not an error.
            log.info(
                "artifact %s has format version %d (supported %d); recomputing",
                path, version, FORMAT_VERSION,
            )
            self.telemetry.stale += 1
            self._discard(path)
            return None
        body = data[_HEADER.size :]
        if len(body) < meta_len:
            self._quarantine(path, "truncated meta")
            return None
        if hashlib.sha256(body).digest() != digest:
            self._quarantine(path, "checksum mismatch")
            return None
        return body[meta_len:]

    def _reclassify_hit_as_miss(self) -> None:
        """Correct telemetry for an entry that decoded as unusable.

        ``get_bytes`` already counted a hit; take it back — but never
        below zero, in case a caller cleared or replaced the telemetry
        between the read and the decode.
        """
        if self.telemetry.hits > 0:
            self.telemetry.hits -= 1
        self.telemetry.stale += 1
        self.telemetry.misses += 1

    def _read_meta(self, data: bytes) -> dict | None:
        if len(data) < _HEADER.size:
            return None
        magic, _version, _digest, meta_len = _HEADER.unpack_from(data)
        if magic != MAGIC or len(data) < _HEADER.size + meta_len:
            return None
        try:
            return json.loads(data[_HEADER.size : _HEADER.size + meta_len])
        except ValueError:
            return None

    def _quarantine(self, path: Path, reason: str) -> None:
        self.telemetry.corrupt += 1
        target = self.quarantine_dir / path.name
        log.warning(
            "artifact %s corrupt (%s); quarantined to %s and recomputing",
            path, reason, target,
        )
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError as exc:
            log.warning(
                "could not quarantine %s (%s); discarding instead", path, exc
            )
            self._discard(path)

    def _discard(self, path: Path) -> None:
        """Delete one entry; a failure is counted and logged, not fatal.

        A deletion that silently fails would leave a corrupt or stale
        entry resurfacing on every read — make it visible.
        """
        try:
            path.unlink(missing_ok=True)
        except OSError as exc:
            self.telemetry.discard_failed += 1
            log.warning("could not discard artifact %s (%s)", path, exc)

    # ------------------------------------------------------------ traces

    def put_trace(self, key: str, trace: DynamicTrace, label: str = "") -> Path:
        return self.put_bytes(
            KIND_TRACE, key, codec.encode_trace(trace), label or trace.name
        )

    def get_trace(self, key: str) -> DynamicTrace | None:
        payload = self.get_bytes(KIND_TRACE, key)
        if payload is None:
            return None
        try:
            return codec.decode_trace(payload)
        except TraceFileError as exc:
            # Includes TraceVersionError: stale codec ⇒ miss, recompute.
            log.info("cached trace %s unusable (%s); recomputing", key[:12], exc)
            self._reclassify_hit_as_miss()
            self._discard(self._entry_path(KIND_TRACE, key))
            return None

    # ----------------------------------------------------------- results

    def put_result(self, key: str, result: object, label: str = "") -> Path:
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        return self.put_bytes(KIND_RESULT, key, payload, label)

    def get_result(self, key: str) -> object | None:
        payload = self.get_bytes(KIND_RESULT, key)
        if payload is None:
            return None
        try:
            return pickle.loads(payload)
        except Exception as exc:  # stale class layout, truncated pickle, ...
            log.info("cached result %s unusable (%s); recomputing", key[:12], exc)
            self._reclassify_hit_as_miss()
            self._discard(self._entry_path(KIND_RESULT, key))
            return None

    # --------------------------------------------------------- inventory

    def entries(self) -> Iterator[EntryInfo]:
        """Yield every valid-looking entry (corrupt files are skipped)."""
        for kind in KINDS:
            kind_dir = self.root / kind
            if not kind_dir.is_dir():
                continue
            for path in sorted(kind_dir.glob("*/*.art")):
                try:
                    stat = path.stat()
                    meta = self._read_meta(path.read_bytes())
                except OSError:
                    continue
                if meta is None:
                    continue
                yield EntryInfo(
                    kind=kind,
                    key=path.stem,
                    label=str(meta.get("label", "")),
                    created=float(meta.get("created", 0.0)),
                    size_bytes=stat.st_size,
                    mtime=stat.st_mtime,
                    path=path,
                )

    def stats(self) -> dict:
        """On-disk summary: entry counts and byte totals per kind."""
        per_kind = {kind: {"entries": 0, "bytes": 0} for kind in KINDS}
        for entry in self.entries():
            per_kind[entry.kind]["entries"] += 1
            per_kind[entry.kind]["bytes"] += entry.size_bytes
        total_entries = sum(k["entries"] for k in per_kind.values())
        total_bytes = sum(k["bytes"] for k in per_kind.values())
        quarantined = (
            len(list(self.quarantine_dir.glob("*.art")))
            if self.quarantine_dir.is_dir()
            else 0
        )
        return {
            "root": str(self.root),
            "kinds": per_kind,
            "entries": total_entries,
            "bytes": total_bytes,
            "quarantined": quarantined,
            "budget_bytes": self.budget_bytes,
        }

    # ---------------------------------------------------------- eviction

    def plan_gc(self, max_bytes: int) -> list[EntryInfo]:
        """The least-recently-used entries :meth:`gc` would evict.

        Computed without deleting anything — ``cache gc --dry-run``
        prints this plan so a budget can be rehearsed before it is
        enforced.
        """
        entries = sorted(self.entries(), key=lambda e: e.mtime)
        total = sum(e.size_bytes for e in entries)
        plan: list[EntryInfo] = []
        for entry in entries:
            if total <= max_bytes:
                break
            plan.append(entry)
            total -= entry.size_bytes
        return plan

    def gc(self, max_bytes: int) -> tuple[int, int]:
        """Evict least-recently-used entries until under ``max_bytes``.

        Returns ``(entries_removed, bytes_removed)``.
        """
        removed = removed_bytes = 0
        for entry in self.plan_gc(max_bytes):
            self._discard(entry.path)
            removed += 1
            removed_bytes += entry.size_bytes
        if removed:
            self.telemetry.evicted += removed
            log.info("gc evicted %d entries (%d bytes)", removed, removed_bytes)
        return removed, removed_bytes

    def clear(self) -> int:
        """Delete every cache entry (quarantine included). Returns count."""
        removed = 0
        for entry in list(self.entries()):
            self._discard(entry.path)
            removed += 1
        if self.quarantine_dir.is_dir():
            for path in self.quarantine_dir.glob("*.art"):
                self._discard(path)
        return removed
