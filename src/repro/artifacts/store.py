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
* every entry embeds a SHA-256 checksum of its body; a corrupt or
  truncated entry, or one of another format version (store envelope or
  trace codec), is deleted, logged and read as a miss — it is
  recomputed, never fatal.

Entry envelope::

    magic 'RART' | u16 format version | 32-byte sha256(meta+payload)
    u32 meta length | meta JSON (kind, label) | payload
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import struct
import tempfile
from pathlib import Path

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


def _read_meta(data: bytes) -> dict | None:
    """The meta record of an envelope, or ``None`` if it does not parse."""
    if len(data) < _HEADER.size:
        return None
    magic, _version, _digest, meta_len = _HEADER.unpack_from(data)
    if magic != MAGIC or len(data) < _HEADER.size + meta_len:
        return None
    try:
        return json.loads(data[_HEADER.size : _HEADER.size + meta_len])
    except ValueError:
        return None


class ArtifactStore:
    """Content-addressed, checksummed on-disk cache."""

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(root).expanduser() if root else default_cache_dir()

    # ------------------------------------------------------------ layout

    def _entry_path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.art"

    def _entry_paths(self, kind: str) -> list[Path]:
        """Every entry file of ``kind`` in key order (in-flight ``.tmp-``
        files excluded)."""
        return sorted((self.root / kind).glob("*/[!.]*.art"))

    # ------------------------------------------------------------- bytes

    def put_bytes(self, kind: str, key: str, payload: bytes, label: str = "") -> Path:
        """Atomically write one entry (temp file + rename)."""
        meta = json.dumps({"kind": kind, "label": label}, sort_keys=True).encode()
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
        return path

    def get_bytes(self, kind: str, key: str) -> bytes | None:
        """Read and verify one entry; a bad entry is deleted, never raises."""
        path = self._entry_path(kind, key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            log.warning("artifact %s unreadable (%s); treating as miss", path, exc)
            return None
        return self._verify(path, data)

    def _verify(self, path: Path, data: bytes) -> bytes | None:
        """Unwrap an envelope; delete a corrupt or stale entry."""
        if len(data) < _HEADER.size:
            return self._drop(path, "truncated header")
        magic, version, digest, meta_len = _HEADER.unpack_from(data)
        if magic != MAGIC:
            return self._drop(path, "bad magic")
        if version != FORMAT_VERSION:
            # Stale format: an expected miss after an upgrade, not damage.
            return self._drop(
                path,
                f"format version {version}, supported {FORMAT_VERSION}",
                logging.INFO,
            )
        body = data[_HEADER.size :]
        if len(body) < meta_len:
            return self._drop(path, "truncated meta")
        if hashlib.sha256(body).digest() != digest:
            return self._drop(path, "checksum mismatch")
        return body[meta_len:]

    def _drop(self, path: Path, reason: str, level: int = logging.WARNING) -> None:
        """Log why an entry is unusable and delete it: it reads as a miss."""
        log.log(level, "artifact %s unusable (%s); deleted, recomputing", path, reason)
        self._discard(path)

    def _discard(self, path: Path) -> None:
        """Delete one entry; a failure is logged, not fatal.

        A deletion that silently fails would leave a corrupt or stale
        entry resurfacing on every read — make it visible.
        """
        try:
            path.unlink(missing_ok=True)
        except OSError as exc:
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
            return self._drop(self._entry_path(KIND_TRACE, key), str(exc), logging.INFO)

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
            return self._drop(
                self._entry_path(KIND_RESULT, key), repr(exc), logging.INFO
            )

    # --------------------------------------------------------- inventory

    def listing(self, kind: str) -> list[tuple[str, int, str]]:
        """``(key, size in bytes, label)`` of every entry of ``kind``.

        In key order.  Reads each entry's meta record; an entry whose
        envelope does not parse is left out.
        """
        listed = []
        for path in self._entry_paths(kind):
            try:
                data = path.read_bytes()
            except OSError:
                continue
            meta = _read_meta(data)
            if meta is not None:
                listed.append((path.stem, len(data), str(meta.get("label", ""))))
        return listed

    def stats(self) -> dict:
        """Entry counts and byte totals per kind, from ``stat()`` alone."""
        per_kind = {}
        for kind in KINDS:
            entries = size = 0
            for path in self._entry_paths(kind):
                try:
                    size += path.stat().st_size
                except FileNotFoundError:
                    continue  # deleted by a concurrent run since the glob
                entries += 1
            per_kind[kind] = {"entries": entries, "bytes": size}
        return {
            "root": str(self.root),
            "kinds": per_kind,
            "entries": sum(k["entries"] for k in per_kind.values()),
            "bytes": sum(k["bytes"] for k in per_kind.values()),
        }

    def clear(self) -> int:
        """Delete every entry. Returns how many there were."""
        paths = [path for kind in KINDS for path in self._entry_paths(kind)]
        for path in paths:
            self._discard(path)
        return len(paths)
