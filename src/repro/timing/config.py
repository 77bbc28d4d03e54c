"""Processor configuration (paper Table 2), with structural validation.

Every entry point that builds timing structures from a configuration
calls :meth:`ProcessorConfig.validate` first, so degenerate geometries
(zero associativity, undersized caches, zero-width pipelines, empty
functional-unit pools) are rejected up front with a :class:`ConfigError`
naming the offending field — instead of a ``ZeroDivisionError`` deep in
cache construction or an infinite issue loop at simulation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ConfigError(ValueError):
    """A structurally invalid processor configuration.

    ``field`` names the offending configuration field (dotted for
    nested cache geometry, e.g. ``dcache.associativity``) so fuzzers
    and CLI users see *which* knob is broken, not just that one is.
    """

    def __init__(self, field_name: str, message: str) -> None:
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


def _require(condition: bool, field_name: str, message: str) -> None:
    if not condition:
        raise ConfigError(field_name, message)


def _is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


@dataclass
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    line_bytes: int = 64
    associativity: int = 4
    hit_latency: int = 2

    def validate(self, prefix: str = "cache") -> None:
        """Reject degenerate geometries with the offending field named."""
        _require(
            self.line_bytes >= 1 and _is_power_of_two(self.line_bytes),
            f"{prefix}.line_bytes",
            f"must be a power of two >= 1, got {self.line_bytes}",
        )
        _require(
            self.associativity >= 1,
            f"{prefix}.associativity",
            f"must be >= 1, got {self.associativity}",
        )
        way_bytes = self.line_bytes * self.associativity
        _require(
            self.size_bytes >= way_bytes,
            f"{prefix}.size_bytes",
            f"must be >= line_bytes*associativity ({way_bytes}), "
            f"got {self.size_bytes}",
        )
        _require(
            self.size_bytes % way_bytes == 0,
            f"{prefix}.size_bytes",
            f"must be a multiple of line_bytes*associativity ({way_bytes}), "
            f"got {self.size_bytes}",
        )
        _require(
            self.hit_latency >= 1,
            f"{prefix}.hit_latency",
            f"must be >= 1, got {self.hit_latency}",
        )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass
class ProcessorConfig:
    """The paper's 8-wide deeply pipelined processor (Table 2).

    ``branch_resolution_depth`` models the 15-cycle minimum between the
    fetch of a branch and the earliest point of its execution.
    """

    fetch_width: int = 8  # uops per cycle
    retire_width: int = 8
    x86_decode_width: int = 4  # x86 instructions per cycle through decoders
    window_size: int = 512
    branch_resolution_depth: int = 15

    simple_alus: int = 6
    complex_alus: int = 2
    fpus: int = 3
    load_store_units: int = 4

    ghr_bits: int = 18  # gshare history length
    btb_entries: int = 4096
    ras_depth: int = 16

    icache: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=8 * 1024, hit_latency=1)
    )
    dcache: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=32 * 1024, hit_latency=2)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=512 * 1024, associativity=8, hit_latency=10
        )
    )
    memory_latency: int = 50

    frame_cache_uops: int = 16 * 1024  # ~64kB equivalent
    cache_switch_penalty: int = 1  # Wait cycles between FCache and ICache

    mul_latency: int = 4
    div_latency: int = 20

    def validate(self) -> None:
        """Reject structurally invalid configurations (ConfigError).

        Checks are ordered front end → execution → memory so the first
        failure reported is the most upstream one.  Every check exists
        because the named degenerate value either crashed (cache
        ``num_sets == 0``), hung (``simple_alus == 0`` spins the issue
        loop forever), or silently mismodeled (``ghr_bits == 0`` folds
        the whole predictor into one counter).
        """
        _require(
            self.fetch_width >= 1,
            "fetch_width", f"must be >= 1, got {self.fetch_width}",
        )
        _require(
            self.retire_width >= 1,
            "retire_width", f"must be >= 1, got {self.retire_width}",
        )
        _require(
            self.x86_decode_width >= 1,
            "x86_decode_width", f"must be >= 1, got {self.x86_decode_width}",
        )
        _require(
            self.window_size >= self.fetch_width,
            "window_size",
            f"must be >= fetch_width ({self.fetch_width}) or fetch can "
            f"never make progress, got {self.window_size}",
        )
        _require(
            self.branch_resolution_depth >= 0,
            "branch_resolution_depth",
            f"must be >= 0, got {self.branch_resolution_depth}",
        )
        for name in ("simple_alus", "complex_alus", "fpus", "load_store_units"):
            count = getattr(self, name)
            _require(
                count >= 1,
                name,
                f"must be >= 1 (a zero-capacity pool deadlocks issue), "
                f"got {count}",
            )
        _require(
            self.ghr_bits >= 1,
            "ghr_bits",
            f"must be >= 1 (0 degenerates gshare to one counter), "
            f"got {self.ghr_bits}",
        )
        _require(
            _is_power_of_two(self.btb_entries),
            "btb_entries",
            f"must be a power of two >= 1, got {self.btb_entries}",
        )
        _require(
            self.ras_depth >= 1,
            "ras_depth", f"must be >= 1, got {self.ras_depth}",
        )
        self.icache.validate("icache")
        self.dcache.validate("dcache")
        self.l2.validate("l2")
        _require(
            self.memory_latency >= 1,
            "memory_latency", f"must be >= 1, got {self.memory_latency}",
        )
        _require(
            self.frame_cache_uops >= 1,
            "frame_cache_uops",
            f"must be >= 1, got {self.frame_cache_uops}",
        )
        _require(
            self.cache_switch_penalty >= 0,
            "cache_switch_penalty",
            f"must be >= 0, got {self.cache_switch_penalty}",
        )
        _require(
            self.mul_latency >= 1,
            "mul_latency", f"must be >= 1, got {self.mul_latency}",
        )
        _require(
            self.div_latency >= 1,
            "div_latency", f"must be >= 1, got {self.div_latency}",
        )

    def table2(self) -> str:
        """Render the configuration as the paper's Table 2."""
        rows = [
            ("Pipeline", f"{self.fetch_width}-wide fetch/issue/retire"),
            ("", f"x86 decoders: {self.x86_decode_width} per cycle"),
            ("", f"{self.branch_resolution_depth} cycles (min) for BR resolution"),
            ("Predictor", f"{self.ghr_bits}-bit gshare"),
            ("Inst Window", f"{self.window_size} instructions"),
            ("ExeUnits", f"{self.simple_alus} simple ALU"),
            ("", f"{self.complex_alus} complex ALU"),
            ("", f"{self.fpus} FPUs"),
            ("", f"{self.load_store_units} load/store units"),
            ("Frame/Trace", f"{_count(self.frame_cache_uops)} micro-operations"),
            ("Cache", f"(approximately {_bytes(self.frame_cache_uops * 4)})"),
            (
                "L1 DCache",
                f"{_bytes(self.dcache.size_bytes)}, "
                f"{self.dcache.hit_latency} cycle hit",
            ),
            (
                "",
                f"{self.load_store_units} read and "
                f"{self.load_store_units} write ports",
            ),
            (
                "L2 Cache",
                f"{_bytes(self.l2.size_bytes)}, {self.l2.hit_latency} cycle hit",
            ),
            ("Memory", f"{self.memory_latency} cycles"),
        ]
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


def _count(value: int) -> str:
    """``16k`` for exact multiples of 1024, the exact count otherwise.

    The old renderer floor-divided, so a 512-uop frame cache printed as
    ``0k`` and 1536 printed as ``1k``.
    """
    if value >= 1024 and value % 1024 == 0:
        return f"{value // 1024}k"
    return str(value)


def _bytes(value: int) -> str:
    if value >= 1024 and value % 1024 == 0:
        return f"{value // 1024}kB"
    return f"{value}B"


def default_config() -> ProcessorConfig:
    """The baseline configuration used throughout the evaluation."""
    return ProcessorConfig()


def large_icache_config() -> ProcessorConfig:
    """The 64kB-ICache reference configuration (paper §5.3)."""
    config = ProcessorConfig()
    config.icache = CacheConfig(size_bytes=64 * 1024, hit_latency=1)
    return config
