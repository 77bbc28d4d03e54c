"""Per-layer self-time tracing for one traced benchmark rep.

The tracer wraps public entry points of the simulator from outside: it
replaces a class attribute or a module global with a timing wrapper, in
the rep process only, after the workload modules are imported.  Every
wrapped call pushes a frame on one stack, so a layer's *self* time is
its calls' wall time minus the time of the wrapped calls nested in
them, and the self times of all layers plus ``harness.other_s`` add up
to the traced wall clock exactly.

Calls made once per cell, program or store operation become spans
(name, start, end, parent, op id).  Calls made per block, instruction,
frame or pass are not spans: each accumulates ``[count, seconds]`` on
the nearest enclosing span, which bounds memory and overhead.  A call
nested directly in a call of its own layer (``inject`` inside
``inject_trace``) is not timed again: the outer call already covers it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from repro.optimizer.pipeline import PASS_ALIASES, PASS_NAMES
from repro.timing.pipeline import BINS

#: Layers named after the ``src/repro`` module that does the work.
LAYERS = (
    "x86.emulate",
    "workloads.assemble",
    "fuzz.generate",
    "trace.inject",
    "replay.sequence",
    "tracecache.sequence",
    "replay.construct",
    "optimizer.buffer",
    "optimizer.optimize",
    *(f"optimizer.pass.{name}" for name in PASS_NAMES),
    "timing.simulate",
    "timing.reference",
    "verify.frame_exec",
    "verify.verifier",
    "fuzz.oracle",
    "artifacts.write",
    "artifacts.read",
)

#: The span each matrix cell runs under (its self time is harness time).
CELL = "harness.cell"

#: Every per-layer metric a traced rep reports, with its unit.
LAYER_UNITS = {
    **{f"{layer}_s": "s" for layer in LAYERS},
    "harness.other_s": "s",
    "x86.insts": "count",
    "replay.frames_built": "count",
    "optimizer.frames": "count",
    "timing.uops": "count",
    "timing.ns_per_uop": "ns",
    "artifacts.bytes_written": "bytes",
    "optimizer.drop_ratio": "ratio",
    "replay.commit_ratio": "ratio",
    "replay.frame_cache_hit_ratio": "ratio",
    **{f"timing.bin.{name}": "cycles" for name in BINS},
    "trace.overhead": "ratio",
}

#: Which workloads' ``wall_s`` each layer should move (bench/README.md).
#: The benchmark tests require a nonzero call count on each, so a
#: renamed entry point fails loudly instead of reading as a zero layer.
LAYER_MOVES = {
    "x86.emulate": ("fig6-cold",),
    "workloads.assemble": ("fig6-cold",),
    "fuzz.generate": ("fuzz-program", "fuzz-config"),
    "trace.inject": ("fig6-cold", "ablation", "fuzz-config"),
    "replay.sequence": ("fig6-cold", "ablation", "fuzz-config"),
    "tracecache.sequence": ("fig6-cold",),
    "replay.construct": ("fig6-cold", "ablation"),
    "optimizer.buffer": ("fuzz-program",),
    "optimizer.optimize": ("fuzz-program",),
    **{f"optimizer.pass.{name}": ("fuzz-program",) for name in PASS_NAMES},
    "timing.simulate": ("fig6-cold", "ablation"),
    "timing.reference": ("fuzz-config",),
    "verify.frame_exec": ("fuzz-program",),
    "verify.verifier": ("fuzz-program",),
    "fuzz.oracle": ("fuzz-program", "fuzz-config"),
    "artifacts.write": ("fig6-cold",),
    "artifacts.read": ("ablation",),
}

_PASS_LAYERS = {
    name: f"optimizer.pass.{PASS_ALIASES.get(name, name)}"
    for name in (*PASS_NAMES, *PASS_ALIASES)
}


def _pass_layer(pass_obj) -> str:
    return _PASS_LAYERS[pass_obj.name]


def _timing_layer(model) -> str:
    return "timing.reference" if model.scheduling == "reference" else "timing.simulate"


class Tracer:
    """Self times, call counts, work counts and spans of one rep."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        #: [name, start, end, parent span index, op id, {layer: [count, s]}]
        self.spans: list[list] = []
        self.op_id = 0
        self._stack: list[list] = []  # [nested seconds, enclosing span, layer]

    def wrap(self, fn, layer, span=False, new_op=False, count=None):
        """Return ``fn`` timed under ``layer`` (a name, or a function of
        the call's first argument that returns one).

        ``count`` is ``(metric, measure)``: ``measure(result)`` is added
        to that work count after every call.
        """
        stack, spans = self._stack, self.spans
        self_s, calls, perf = self.self_s, self.calls, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(args[0])
            parent = stack[-1] if stack else None
            if parent is not None and parent[2] == name and not span:
                return fn(*args, **kwargs)
            owner = parent[1] if parent is not None else -1
            if span:
                if new_op:
                    self.op_id += 1
                index = len(spans)
                spans.append([name, 0.0, 0.0, owner, self.op_id, {}])
                owner = index
            frame = [0.0, owner, name]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                self_s[name] += elapsed - frame[0]
                calls[name] += 1
                if parent is not None:
                    parent[0] += elapsed
                if span:
                    spans[index][1] = start - self.origin
                    spans[index][2] = end - self.origin
                elif owner >= 0:
                    acc = spans[owner][5].get(name)
                    if acc is None:
                        acc = spans[owner][5][name] = [0, 0.0]
                    acc[0] += 1
                    acc[1] += elapsed
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return traced

    def patch(self, owner, attr: str, layer, **options) -> None:
        """Replace ``owner.attr`` (a class's own method or a module
        global) with its traced version; a missing name raises."""
        try:
            original = vars(owner)[attr]
        except KeyError:
            raise AttributeError(
                f"traced entry point {owner.__name__}.{attr} no longer exists"
            ) from None
        setattr(owner, attr, self.wrap(original, layer, **options))

    def install(self) -> None:
        """Wrap every layer's entry points (see bench/README.md)."""
        from repro.artifacts import runner
        from repro.artifacts.store import ArtifactStore
        from repro.fuzz import campaign, config_oracle, oracle
        from repro.optimizer.passes.base import Pass
        from repro.optimizer.pipeline import FrameOptimizer
        from repro.replay.constructor import FrameConstructor
        from repro.replay.frame import Frame
        from repro.replay.sequencer import ICacheSequencer, RePLaySequencer
        from repro.timing.pipeline import PipelineModel
        from repro.trace.injector import MicroOpInjector
        from repro.tracecache.sequencer import TraceCacheSequencer
        from repro.verify.verifier import StateVerifier
        from repro.x86.emulator import Emulator

        patch = self.patch
        patch(Emulator, "run", "x86.emulate", span=True, count=("x86.insts", len))
        patch(runner, "build_workload", "workloads.assemble", span=True)
        patch(campaign, "generate_program", "fuzz.generate", span=True, new_op=True)
        patch(campaign, "generate_config", "fuzz.generate", span=True)
        patch(oracle, "render_program", "fuzz.generate", span=True)
        patch(config_oracle, "render_program", "fuzz.generate", span=True)
        patch(MicroOpInjector, "inject_trace", "trace.inject", span=True)
        patch(MicroOpInjector, "inject", "trace.inject")
        for sequencer in (ICacheSequencer, RePLaySequencer):
            patch(sequencer, "__init__", "replay.sequence")
            patch(sequencer, "next_block", "replay.sequence")
        patch(TraceCacheSequencer, "__init__", "tracecache.sequence")
        patch(TraceCacheSequencer, "next_block", "tracecache.sequence")
        patch(
            FrameConstructor,
            "retire",
            "replay.construct",
            count=("replay.frames_built", lambda frame: frame is not None),
        )
        patch(Frame, "build_buffer", "optimizer.buffer")
        patch(FrameOptimizer, "optimize", "optimizer.optimize")
        patch(Pass, "__call__", _pass_layer)
        patch(
            PipelineModel,
            "simulate",
            _timing_layer,
            span=True,
            count=("timing.uops", lambda sim: sim.uops_fetched),
        )
        patch(StateVerifier, "verify_frame_instance", "verify.verifier")
        patch(oracle, "execute_frame", "verify.frame_exec")
        patch(campaign, "run_differential", "fuzz.oracle", span=True)
        patch(campaign, "run_config_differential", "fuzz.oracle", span=True)
        written = ("artifacts.bytes_written", lambda path: path.stat().st_size)
        patch(ArtifactStore, "put_trace", "artifacts.write", span=True, count=written)
        patch(ArtifactStore, "put_result", "artifacts.write", span=True, count=written)
        patch(ArtifactStore, "get_trace", "artifacts.read", span=True)
        patch(ArtifactStore, "get_result", "artifacts.read", span=True)

    def metrics(self, wall: float, counters: dict, bins: dict) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead``.

        ``counters`` is the rep's metrics-registry counters and ``bins``
        its simulated cycle bins.
        """
        out = {f"{layer}_s": self.self_s.get(layer, 0.0) for layer in LAYERS}
        out["harness.other_s"] = wall - sum(out.values())
        for name in ("x86.insts", "replay.frames_built", "timing.uops"):
            out[name] = self.counts.get(name, 0)
        out["artifacts.bytes_written"] = self.counts.get("artifacts.bytes_written", 0)
        out["optimizer.frames"] = self.calls.get("optimizer.optimize", 0)
        timing_s = out["timing.simulate_s"] + out["timing.reference_s"]
        uops = out["timing.uops"]
        out["timing.ns_per_uop"] = timing_s / uops * 1e9 if uops else 0.0

        def ratio(part: str, other: str) -> float:
            a, b = counters.get(part, 0), counters.get(other, 0)
            return a / (a + b) if a + b else 0.0

        out["optimizer.drop_ratio"] = ratio(
            "optimizer.frames_dropped", "optimizer.frames_optimized"
        )
        out["replay.commit_ratio"] = ratio(
            "sequencer.frame_dispatches", "sequencer.frame_aborts"
        )
        out["replay.frame_cache_hit_ratio"] = ratio(
            "frame_cache.hits", "frame_cache.misses"
        )
        for name in BINS:
            out[f"timing.bin.{name}"] = bins.get(name, 0)
        return out

    def write(self, path, wall: float) -> None:
        """Write the spans and per-layer totals as one JSON document."""
        document = {
            "wall_s": wall,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "spans": [
                {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": op,
                    "calls": calls,
                }
                for name, start, end, parent, op, calls in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(document, stream)
