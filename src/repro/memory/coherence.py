"""The coherence domain: bus snooping between per-chip L2 caches.

Every :class:`~repro.memory.hierarchy.MemoryHierarchy` belongs to one
domain, which owns the shared back end, the system bus and the memory
controller, and resolves every L2 miss.  A uniprocessor is a domain of
one CPU: its misses find no remote copy and go to memory.

The domain implements the MOESI-style protocol the SPARC64 V system
uses between chips.  All processors' L2s snoop the shared system bus:

- a read miss that another chip holds MODIFIED/OWNED is served
  cache-to-cache (a "move-out" of the dirty line, §3.3); the owner
  downgrades to OWNED (data stays dirty, memory is not written);
- a read miss with only clean remote copies is served from memory and
  installs SHARED;
- a write miss invalidates all remote copies and installs MODIFIED;
- a write to a locally SHARED line issues an upgrade (invalidate-only
  bus transaction, no data).

Timing: every transaction arbitrates for the shared system bus; a
cache-to-cache transfer costs the bus transfer plus the remote chip's L2
access, which is why it is still far cheaper than DRAM — the quantity
the two-level-hierarchy argument of §3.3 turns on.  Each transfer's bus
cycles are also counted against the CPU that caused it
(:attr:`CoherenceDomain.bus_busy_by_cpu`), so the per-CPU counts sum to
the bus's own.
"""

from __future__ import annotations

import weakref
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict

from repro.common.errors import ConfigError, SimulationError
from repro.memory.bus import Bus, TransferTiming
from repro.memory.cache import LineState
from repro.memory.dram import MemoryController
from repro.memory.params import BusParams, MemoryParams

if TYPE_CHECKING:
    from repro.memory.hierarchy import MemoryHierarchy


@dataclass
class RemoteResult:
    """Outcome of a coherence-domain line fetch."""

    ready_cycle: int
    #: True when another L2 supplied the line (move-out), else memory.
    from_cache: bool
    #: Install state for the requester.
    state: LineState


@dataclass
class CoherenceStats:
    """Domain-wide coherence traffic counters."""

    read_misses: int = 0
    write_misses: int = 0
    upgrades: int = 0
    #: Lines served by another chip's L2 ("move-out" transfers).
    cache_to_cache: int = 0
    memory_fetches: int = 0
    invalidations_sent: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class CoherenceDomain:
    """The snooping interconnect joining every processor's L2."""

    #: L2 tag-pipe cycles for a remote chip to source a line.
    REMOTE_L2_ACCESS = 12

    def __init__(
        self,
        system_bus: BusParams,
        memory: MemoryParams,
        line_bytes: int = 64,
    ) -> None:
        self.system_bus = Bus(system_bus)
        self.memory = MemoryController(memory, line_bytes=line_bytes)
        self.line_bytes = line_bytes
        # Weak: each hierarchy holds its domain, and a strong link back
        # would make every hierarchy a reference cycle that outlives its
        # run until the cyclic collector finds it (a two-worker sweep
        # peaked 7.5 MB higher that way).
        self._hierarchies: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        #: System-bus busy cycles of the transfers each CPU caused.
        self.bus_busy_by_cpu: Dict[int, int] = {}
        self.stats = CoherenceStats()

    def attach(self, hierarchy: "MemoryHierarchy") -> None:
        """Register one processor's hierarchy with the domain."""
        if hierarchy.cpu in self._hierarchies:
            raise SimulationError(f"duplicate cpu id {hierarchy.cpu}")
        self._hierarchies[hierarchy.cpu] = hierarchy
        self.bus_busy_by_cpu[hierarchy.cpu] = 0

    def reset_timing(self) -> None:
        """Forget the bus and memory reservations (sampled simulation).

        Only a one-CPU domain may rewind: with more CPUs the bus and the
        memory controller are shared with other cores mid-flight.
        """
        if len(self._hierarchies) > 1:
            raise ConfigError(
                f"cannot reset timing in a coherence domain of "
                f"{len(self._hierarchies)} CPUs"
            )
        self.system_bus.reset()
        self.memory.reset()
        self.bus_busy_by_cpu = dict.fromkeys(self.bus_busy_by_cpu, 0)

    # ------------------------------------------------------------------
    # Requests from the hierarchies.
    # ------------------------------------------------------------------

    def _transfer(self, cycle: int, payload_bytes: int, cpu: int) -> TransferTiming:
        """One system-bus transfer, its busy cycles counted against ``cpu``."""
        self.bus_busy_by_cpu[cpu] += self.system_bus.params.occupancy(payload_bytes)
        return self.system_bus.transfer(cycle, payload_bytes)

    def write_back(self, cycle: int, cpu: int) -> None:
        """CPU ``cpu``'s dirty L2 victim goes back to memory over the bus."""
        self._transfer(cycle, self.line_bytes, cpu)

    def fetch_line(
        self, cycle: int, cpu: int, line_addr: int, is_write: bool
    ) -> RemoteResult:
        """Resolve an L2 miss: snoop every other chip, then memory."""
        if is_write:
            self.stats.write_misses += 1
        else:
            self.stats.read_misses += 1

        # Command broadcast: every chip snoops the address.
        request = self._transfer(cycle, 8, cpu)

        owner = None
        sharers = []
        for hierarchy in self._hierarchies.values():
            if hierarchy.cpu == cpu:
                continue
            state = hierarchy.snoop_probe(line_addr)
            if state is None:
                continue
            if state.is_dirty:
                owner = hierarchy
            sharers.append(hierarchy)

        if is_write:
            # Invalidate every remote copy.
            for hierarchy in sharers:
                hierarchy.snoop_downgrade(line_addr, LineState.INVALID)
                self.stats.invalidations_sent += 1
            if owner is not None:
                # Dirty data moves out of the owner to the writer.
                self.stats.cache_to_cache += 1
                data = self._transfer(
                    request.done + self.REMOTE_L2_ACCESS, self.line_bytes, cpu
                )
                return RemoteResult(
                    ready_cycle=data.done, from_cache=True, state=LineState.MODIFIED
                )
            self.stats.memory_fetches += 1
            data_ready = self.memory.request(request.done, line_addr)
            data = self._transfer(data_ready, self.line_bytes, cpu)
            return RemoteResult(
                ready_cycle=data.done, from_cache=False, state=LineState.MODIFIED
            )

        # Read miss.
        if owner is not None:
            # Move-out: the owner sources the line and keeps it OWNED.
            self.stats.cache_to_cache += 1
            owner.snoop_downgrade(line_addr, LineState.OWNED)
            data = self._transfer(
                request.done + self.REMOTE_L2_ACCESS, self.line_bytes, cpu
            )
            return RemoteResult(
                ready_cycle=data.done, from_cache=True, state=LineState.SHARED
            )
        install = LineState.SHARED if sharers else LineState.EXCLUSIVE
        self.stats.memory_fetches += 1
        data_ready = self.memory.request(request.done, line_addr)
        data = self._transfer(data_ready, self.line_bytes, cpu)
        return RemoteResult(ready_cycle=data.done, from_cache=False, state=install)

    def upgrade_line(self, cycle: int, cpu: int, line_addr: int) -> int:
        """Write to a locally SHARED line: invalidate remote copies."""
        self.stats.upgrades += 1
        request = self._transfer(cycle, 8, cpu)
        for hierarchy in self._hierarchies.values():
            if hierarchy.cpu == cpu:
                continue
            if hierarchy.snoop_probe(line_addr) is not None:
                hierarchy.snoop_downgrade(line_addr, LineState.INVALID)
                self.stats.invalidations_sent += 1
        return request.done
