"""Corpus of minimized divergent programs in the artifact store.

Each case is one JSON document under artifact kind ``fuzz``, keyed by
the content of its (minimized) genome — saving the same minimized
program twice, from different campaigns, dedupes to one entry.  The
case records everything needed to replay and to re-minimize:

* the genome itself (``repro.fuzz.generator`` JSON, version 1);
* where it was found (campaign seed, program index, derived seed);
* the divergences the oracle reported at save time.

Two case formats share the store: format 1 is a program-only case
(the semantic differential oracle), format 2 a **(program, config)**
pair from the config-differential oracle — same shape plus a
``config`` document (``repro.fuzz.configgen`` JSON), keyed by the
content of both halves.  ``fuzz repro <case-id>`` accepts any
unambiguous key prefix, like git, and replays each format through the
oracle that produced it.
"""

from __future__ import annotations

import json

from repro.artifacts.store import KIND_FUZZ, ArtifactStore, content_key

from repro.fuzz.generator import FuzzProgram, program_to_json

CASE_FORMAT = 1
CONFIG_CASE_FORMAT = 2
_SUPPORTED_FORMATS = (CASE_FORMAT, CONFIG_CASE_FORMAT)


class CorpusError(Exception):
    """Unknown, ambiguous, or malformed corpus case."""


class FuzzCorpus:
    """Thin typed facade over ``ArtifactStore`` kind ``fuzz``."""

    def __init__(self, store: ArtifactStore | None = None) -> None:
        self.store = store or ArtifactStore()

    # ------------------------------------------------------------- write

    def save_case(
        self,
        genome: FuzzProgram,
        divergences: list,
        found: dict | None = None,
        config_json: dict | None = None,
    ) -> str:
        """Persist one case; returns its content key (the case id).

        ``divergences`` are the oracle's :class:`~repro.fuzz.oracle.
        Divergence` items, or :class:`~repro.fuzz.config_oracle.
        ConfigDivergence` items when ``config_json`` is given.  A
        (program, config) pair is keyed by both halves, so the same
        program under two configs is two cases.
        """
        program_json = program_to_json(genome)
        material = {"program": program_json}
        payload = {
            "format": CASE_FORMAT,
            "program": program_json,
            "found": found or {},
            "divergences": [d.to_json() for d in divergences],
        }
        label = f"seed={genome.seed} ops={len(genome.ops)} "
        if config_json is not None:
            material["config"] = payload["config"] = config_json
            payload["format"] = CONFIG_CASE_FORMAT
            label += "config "
        label += ",".join(sorted({d.kind for d in divergences}))
        case_id = content_key("fuzz", material)
        body = json.dumps(payload, sort_keys=True, indent=1).encode("utf-8")
        self.store.put_bytes(KIND_FUZZ, case_id, body, label=label)
        return case_id

    # -------------------------------------------------------------- read

    def resolve(self, prefix: str) -> str:
        """Full case id for an unambiguous id prefix."""
        matches = [
            case["id"] for case in self.list_cases() if case["id"].startswith(prefix)
        ]
        if not matches:
            raise CorpusError(f"no fuzz case matches {prefix!r}")
        if len(matches) > 1:
            raise CorpusError(
                f"ambiguous case prefix {prefix!r}: "
                + ", ".join(key[:12] for key in sorted(matches))
            )
        return matches[0]

    def load_case(self, case_id: str) -> dict:
        """Case payload for a full or prefixed id."""
        if len(case_id) < 64:
            case_id = self.resolve(case_id)
        body = self.store.get_bytes(KIND_FUZZ, case_id)
        if body is None:
            raise CorpusError(f"fuzz case {case_id[:12]} not in store")
        try:
            payload = json.loads(body)
        except ValueError as exc:
            raise CorpusError(f"fuzz case {case_id[:12]} is not JSON") from exc
        if payload.get("format") not in _SUPPORTED_FORMATS:
            raise CorpusError(
                f"fuzz case {case_id[:12]} has format "
                f"{payload.get('format')!r} (supported "
                f"{', '.join(str(f) for f in _SUPPORTED_FORMATS)})"
            )
        return payload

    def list_cases(self) -> list[dict]:
        """Summaries of every stored case (id, size, label), in id order."""
        return [
            {"id": key, "size_bytes": size, "label": label}
            for key, size, label in self.store.listing(KIND_FUZZ)
        ]
