"""Parameter dataclasses for the memory system.

These are deliberately separate from :mod:`repro.model.config` (which
composes them into full machine configurations) so the memory components
can be built and unit-tested standalone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.common.errors import ConfigError
from repro.common.units import is_power_of_two


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry and access timing of one cache level."""

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = 64
    #: Load-to-use latency of a hit, in cycles.
    hit_latency: int = 3
    #: Miss-status holding registers (outstanding line misses).
    mshr_count: int = 8
    #: Number of interleaved data banks (L1 operand cache: 8 × 4 B).
    banks: int = 1
    bank_bytes: int = 4

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ConfigError(f"{self.name}: size/ways/line must be positive")
        if not is_power_of_two(self.line_bytes):
            raise ConfigError(f"{self.name}: line_bytes must be a power of two")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ConfigError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )
        sets = self.size_bytes // (self.ways * self.line_bytes)
        if not is_power_of_two(sets):
            raise ConfigError(f"{self.name}: set count {sets} must be a power of two")
        if self.hit_latency < 1:
            raise ConfigError(f"{self.name}: hit latency must be >= 1")
        if self.mshr_count < 1:
            raise ConfigError(f"{self.name}: need at least one MSHR")
        if self.banks < 1 or not is_power_of_two(self.banks):
            raise ConfigError(f"{self.name}: banks must be a positive power of two")

    @property
    def sets(self) -> int:
        """Number of cache sets."""
        return self.size_bytes // (self.ways * self.line_bytes)

    def scaled(self, **changes) -> "CacheGeometry":
        """Copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class TlbGeometry:
    """Geometry of a translation look-aside buffer."""

    name: str
    entries: int = 512
    ways: int = 4
    page_bytes: int = 8192
    #: Fixed hardware-walk penalty on a TLB miss, in cycles.
    miss_penalty: int = 60

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.ways <= 0:
            raise ConfigError(f"{self.name}: entries/ways must be positive")
        if self.entries % self.ways != 0:
            raise ConfigError(f"{self.name}: entries must divide evenly into ways")
        if not is_power_of_two(self.entries // self.ways):
            raise ConfigError(f"{self.name}: TLB set count must be a power of two")
        if not is_power_of_two(self.page_bytes):
            raise ConfigError(f"{self.name}: page size must be a power of two")


@dataclass(frozen=True)
class BusParams:
    """One bus/interconnect segment with latency and bandwidth."""

    name: str
    #: Transfer setup latency in cycles (request to first data).
    latency: int = 4
    #: Payload bytes moved per cycle once the transfer starts.
    bytes_per_cycle: int = 16

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ConfigError(f"{self.name}: latency must be >= 0")
        if self.bytes_per_cycle <= 0:
            raise ConfigError(f"{self.name}: bandwidth must be positive")

    def occupancy(self, payload_bytes: int) -> int:
        """Bus-busy cycles for one transfer of ``payload_bytes``."""
        return max(1, (payload_bytes + self.bytes_per_cycle - 1) // self.bytes_per_cycle)


@dataclass(frozen=True)
class MemoryParams:
    """Main-memory (DRAM + controller) timing."""

    #: Controller + DRAM access latency in cycles (row activation etc.).
    latency: int = 260
    #: Independent controller channels (parallel requests).
    channels: int = 2
    #: Per-channel occupancy per line transfer, in cycles.
    channel_occupancy: int = 16

    def __post_init__(self) -> None:
        if self.latency <= 0 or self.channels <= 0 or self.channel_occupancy <= 0:
            raise ConfigError("memory parameters must be positive")


@dataclass(frozen=True)
class PrefetchParams:
    """L2 hardware-prefetch engine parameters (§3.4).

    The SPARC64 V prefetches into the L2 only, triggered by demand L1
    misses, with no extra pipeline stages and no side buffer.  The engine
    watches the miss stream for sequential line chains and strided streams
    and issues ``degree`` line fetches ``distance`` lines ahead.
    """

    enabled: bool = True
    #: Number of stream-detection table entries.
    streams: int = 32
    #: Lines fetched ahead once a stream is confirmed.
    degree: int = 2
    #: How far ahead (in lines) the prefetch runs.
    distance: int = 2
    #: Misses to the same stream needed before prefetching starts.
    confirmation_threshold: int = 2

    def __post_init__(self) -> None:
        if self.streams <= 0 or self.degree <= 0 or self.distance <= 0:
            raise ConfigError("prefetch parameters must be positive")
        if self.confirmation_threshold < 1:
            raise ConfigError("confirmation_threshold must be >= 1")
