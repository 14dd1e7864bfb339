"""One processor's two-level cache hierarchy.

This composes the component models into the SPARC64 V's memory system
(§3.3, §3.4): split 128 KB 2-way L1 caches (the operand side banked
8 × 4 B), a unified 2 MB 4-way on-chip L2, hardware prefetch into the L2,
ITLB/DTLB and an L1↔L2 interface.  Off-chip L2 configurations (§4.3.4)
are expressed purely through the L1↔L2 interface parameters (+10 ns ≈
13 cycles, fewer pins ⇒ narrower data path).

Timing discipline: the tag arrays are updated at request time, while data
readiness is tracked by MSHR entries — the standard non-blocking-cache
approximation.  Requests to in-flight lines coalesce onto the existing
MSHR.  Buses and memory channels are busy-until resources, so bandwidth
saturation and queueing show up as real cycles.

Every hierarchy belongs to a :class:`~repro.memory.coherence.CoherenceDomain`,
which owns the system bus and the memory controller.  L2 misses and
write-upgrades go through the domain, which may satisfy them by
cache-to-cache "move-out" transfers from another processor's L2; a
uniprocessor is a domain of one, whose misses always go to memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.memory.bus import Bus
from repro.memory.cache import LineState, SetAssociativeCache
from repro.memory.coherence import CoherenceDomain
from repro.memory.mshr import MshrFile
from repro.memory.params import BusParams, CacheGeometry, PrefetchParams, TlbGeometry
from repro.memory.prefetch import PrefetchEngine
from repro.memory.tlb import Tlb


@dataclass
class AccessResult:
    """Outcome of one demand access into the hierarchy."""

    #: Cycle at which the data is usable by the core.
    ready_cycle: int
    #: Deepest level that serviced the request: "l1", "l2", "remote", "mem".
    level: str
    #: Extra cycles spent on a TLB walk (0 on TLB hit).
    tlb_cycles: int = 0


class MemoryHierarchy:
    """One processor's complete memory system."""

    def __init__(
        self,
        l1i: CacheGeometry,
        l1d: CacheGeometry,
        l2: CacheGeometry,
        itlb: TlbGeometry,
        dtlb: TlbGeometry,
        l1_l2_bus: BusParams,
        prefetch: PrefetchParams,
        domain: CoherenceDomain,
        cpu: int = 0,
        perfect_l1: bool = False,
        perfect_l2: bool = False,
        perfect_tlb: bool = False,
    ) -> None:
        self.cpu = cpu
        self.l1i = SetAssociativeCache(l1i)
        self.l1d = SetAssociativeCache(l1d)
        self.l2 = SetAssociativeCache(l2)
        self.itlb = Tlb(itlb)
        self.dtlb = Tlb(dtlb)
        self.l1i_mshr = MshrFile(l1i.mshr_count)
        self.l1d_mshr = MshrFile(l1d.mshr_count)
        self.l2_mshr = MshrFile(l2.mshr_count)
        self.l1_l2_bus = Bus(l1_l2_bus)
        self.prefetcher = PrefetchEngine(prefetch, line_bytes=l2.line_bytes)
        #: The coherence domain this processor's L2 snoops in; it owns the
        #: system bus and memory controller.
        self.domain = domain
        domain.attach(self)
        self._line_bytes = l2.line_bytes
        # Attribution of in-flight L1 misses ("l2"/"remote"/"mem").
        self._pending_level: Dict[int, str] = {}
        # Perfect-structure switches used for Figure 7's stall attribution:
        # a perfect structure always hits at its normal hit latency.
        self.perfect_l1 = perfect_l1
        self.perfect_l2 = perfect_l2
        self.perfect_tlb = perfect_tlb

    # ------------------------------------------------------------------
    # Public demand-access API (used by the core).
    # ------------------------------------------------------------------

    def fetch(self, cycle: int, pc: int) -> AccessResult:
        """Instruction fetch of the line containing ``pc``."""
        if self.perfect_l1:
            return AccessResult(
                ready_cycle=cycle + self.l1i.geometry.hit_latency, level="l1"
            )
        tlb_cycles = 0 if self.perfect_tlb else self.itlb.translate(pc)
        start = cycle + tlb_cycles
        result = self._l1_access(
            start, pc, self.l1i, self.l1i_mshr, is_write=False, is_instruction=True
        )
        result.tlb_cycles = tlb_cycles
        return result

    def load(self, cycle: int, addr: int) -> AccessResult:
        """Data load."""
        if self.perfect_l1:
            return AccessResult(
                ready_cycle=cycle + self.l1d.geometry.hit_latency, level="l1"
            )
        tlb_cycles = 0 if self.perfect_tlb else self.dtlb.translate(addr)
        start = cycle + tlb_cycles
        result = self._l1_access(
            start, addr, self.l1d, self.l1d_mshr, is_write=False, is_instruction=False
        )
        result.tlb_cycles = tlb_cycles
        return result

    def store(self, cycle: int, addr: int) -> AccessResult:
        """Data store (write-allocate, copy-back)."""
        if self.perfect_l1:
            return AccessResult(
                ready_cycle=cycle + self.l1d.geometry.hit_latency, level="l1"
            )
        tlb_cycles = 0 if self.perfect_tlb else self.dtlb.translate(addr)
        start = cycle + tlb_cycles
        result = self._l1_access(
            start, addr, self.l1d, self.l1d_mshr, is_write=True, is_instruction=False
        )
        result.tlb_cycles = tlb_cycles
        return result

    def bank_of(self, addr: int) -> int:
        """L1 operand cache bank servicing ``addr`` (for port arbitration)."""
        return self.l1d.bank_of(addr)

    # ------------------------------------------------------------------
    # Functional-warming mode (no timing) and sampled-simulation resets.
    # ------------------------------------------------------------------

    def warm_fetch(self, pc: int, prefetch: bool = False) -> None:
        """Functionally touch the instruction-side structures for ``pc``.

        Tag/LRU/TLB state changes exactly as a timed fetch would change
        it, but no cycles pass: no MSHRs, buses or memory channels are
        reserved.  Fill decisions mirror the timed path.

        ``prefetch=True`` additionally trains the L2 prefetch engine on
        the miss stream and installs its prefetches (sampled simulation
        needs this: prefetched-ahead lines are part of steady-state L2
        contents, and windows are too short to re-detect streams).
        """
        self.itlb.translate(pc)
        if not self.l1i.lookup(pc):
            if prefetch:
                self._warm_prefetches(self.l1i.line_addr(pc))
            if not self.l2.lookup(pc):
                self.l2.fill(pc)
            self.l1i.fill(pc)

    def warm_data(self, addr: int, is_write: bool, prefetch: bool = False) -> None:
        """Functionally touch the data-side structures for ``addr``.

        Stores dirty their lines (MODIFIED install), loads install
        EXCLUSIVE — the same states the timed path uses.  ``prefetch``
        as in :meth:`warm_fetch`.
        """
        self.dtlb.translate(addr)
        if not self.l1d.lookup(addr, is_write=is_write):
            if prefetch:
                self._warm_prefetches(self.l1d.line_addr(addr))
            state = LineState.MODIFIED if is_write else LineState.EXCLUSIVE
            if not self.l2.lookup(addr, is_write=is_write):
                self.l2.fill(addr, state=state)
            self.l1d.fill(addr, state=state)

    def _warm_prefetches(self, line: int) -> None:
        """Train the prefetcher on a warm-mode L1 miss; install its lines.

        Installing matters as much as training: prefetched-ahead lines
        are part of steady-state L2 *contents*.  Without them a detailed
        window starts with demand misses saturating the L2 MSHRs, which
        drops every new prefetch — a self-sustaining prefetchless
        equilibrium the full run never visits.  The detailed-warmup
        prefix of each window then rebuilds realistic bus and memory
        pressure on top of this state.
        """
        for prefetch_addr in self.prefetcher.on_demand_miss(line):
            target = self.l2.line_addr(prefetch_addr)
            if self.l2.probe(target) is None:
                self.l2.fill(target, from_prefetch=True)

    def reset_timing(self) -> None:
        """Forget every busy-until reservation; keep cache/TLB contents.

        Sampled simulation restarts each detailed window at cycle 0 with
        micro-architectural *contents* carried over.  Outstanding MSHR
        fills, bus occupancy and memory-channel reservations are
        timestamps against the previous window's timeline and must be
        dropped, or they would stall the new window for its whole life.
        Only a hierarchy alone in its coherence domain can rewind (see
        :meth:`CoherenceDomain.reset_timing`).
        """
        self.domain.reset_timing()
        self.l1i_mshr.clear()
        self.l1d_mshr.clear()
        self.l2_mshr.clear()
        self.l1_l2_bus.reset()
        self._pending_level.clear()

    # ------------------------------------------------------------------
    # L1 level.
    # ------------------------------------------------------------------

    def _l1_access(
        self,
        cycle: int,
        addr: int,
        cache: SetAssociativeCache,
        mshr: MshrFile,
        is_write: bool,
        is_instruction: bool,
    ) -> AccessResult:
        line = cache.line_addr(addr)
        hit_latency = cache.geometry.hit_latency

        # Coalesce onto an in-flight fill for this line.
        pending_ready = mshr.outstanding(line, cycle)
        if pending_ready is not None:
            cache.stats.demand_accesses += 1
            cache.stats.demand_misses += 1
            level = self._pending_level.get(line, "l2")
            return AccessResult(
                ready_cycle=max(pending_ready, cycle + hit_latency), level=level
            )

        if cache.lookup(addr, is_write=is_write):
            ready = cycle + hit_latency
            if is_write:
                self._note_l2_write_ownership(cycle, line)
            return AccessResult(ready_cycle=ready, level="l1")

        # L1 miss: trigger the L2 prefetcher on the demand-miss stream.
        prefetch_lines = self.prefetcher.on_demand_miss(line)

        # MSHR capacity: if full, the request waits for a free entry.
        issue_cycle = cycle
        if not mshr.can_allocate(issue_cycle):
            issue_cycle = max(issue_cycle, mshr.next_free_cycle())
            mshr.can_allocate(issue_cycle)

        l2_result = self._l2_access(
            issue_cycle + hit_latency, line, is_write=is_write, demand=True
        )
        # Data returns to the L1 over the L1<->L2 interface.
        transfer = self.l1_l2_bus.transfer(l2_result.ready_cycle, self._line_bytes)
        ready = transfer.done

        state = LineState.MODIFIED if is_write else LineState.EXCLUSIVE
        evicted = cache.fill(line, state=state)
        if evicted is not None and evicted.dirty:
            # Copy-back of the dirty victim into the L2.  The write is an
            # install, not a demand access: if the L2 has meanwhile evicted
            # the line (no back-invalidation is modelled), the victim
            # writeback re-allocates it.
            self.l1_l2_bus.transfer(issue_cycle, self._line_bytes)
            if self.l2.probe(evicted.line_addr) is not None:
                self.l2.downgrade(evicted.line_addr, LineState.MODIFIED)
            elif not self.perfect_l2:
                l2_victim = self.l2.fill(evicted.line_addr, state=LineState.MODIFIED)
                if l2_victim is not None and l2_victim.dirty:
                    self.domain.write_back(issue_cycle, self.cpu)

        mshr.allocate(line, ready, issue_cycle)
        self._pending_level[line] = l2_result.level
        if len(self._pending_level) > 4096:
            # Bound the map by evicting the oldest half (insertion order).
            # Old entries are almost always completed fills; clearing the
            # whole map would instead misattribute every still-in-flight
            # wait to the default "l2" level for a while.
            for stale in list(self._pending_level)[:2048]:
                del self._pending_level[stale]

        for prefetch_addr in prefetch_lines:
            self._issue_prefetch(issue_cycle, prefetch_addr)

        return AccessResult(ready_cycle=ready, level=l2_result.level)

    # ------------------------------------------------------------------
    # L2 level.
    # ------------------------------------------------------------------

    def _l2_access(
        self, cycle: int, line: int, is_write: bool, demand: bool
    ) -> AccessResult:
        hit_latency = self.l2.geometry.hit_latency
        if self.perfect_l2:
            if demand:
                self.l2.stats.demand_accesses += 1
            return AccessResult(ready_cycle=cycle + hit_latency, level="l2")

        pending_ready = self.l2_mshr.outstanding(line, cycle)
        if pending_ready is not None:
            if demand:
                self.l2.stats.demand_accesses += 1
                self.l2.stats.demand_misses += 1
            else:
                self.l2.stats.prefetch_accesses += 1
                self.l2.stats.prefetch_misses += 1
            return AccessResult(
                ready_cycle=max(pending_ready, cycle + hit_latency),
                level=self._pending_level.get(-line, "mem"),
            )

        if self.l2.lookup(line, is_write=is_write, prefetch=not demand):
            return AccessResult(ready_cycle=cycle + hit_latency, level="l2")

        # L2 miss.
        issue_cycle = cycle + hit_latency  # tag check before going out
        if not self.l2_mshr.can_allocate(issue_cycle):
            issue_cycle = max(issue_cycle, self.l2_mshr.next_free_cycle())
            self.l2_mshr.can_allocate(issue_cycle)

        remote = self.domain.fetch_line(issue_cycle, self.cpu, line, is_write)
        level = "remote" if remote.from_cache else "mem"
        evicted = self.l2.fill(line, state=remote.state, from_prefetch=not demand)
        if evicted is not None and evicted.dirty:
            self.domain.write_back(issue_cycle, self.cpu)

        self.l2_mshr.allocate(line, remote.ready_cycle, issue_cycle)
        self._pending_level[-line] = level
        return AccessResult(ready_cycle=remote.ready_cycle, level=level)

    def _issue_prefetch(self, cycle: int, line_addr: int) -> None:
        """Prefetch one line into the L2 (never into the L1)."""
        line = self.l2.line_addr(line_addr)
        if self.l2_mshr.outstanding(line, cycle) is not None:
            return
        if self.l2.probe(line) is not None:
            return
        if not self.l2_mshr.can_allocate(cycle):
            return  # prefetches are dropped under pressure, never stall
        self._l2_access(cycle, line, is_write=False, demand=False)

    def _note_l2_write_ownership(self, cycle: int, line: int) -> None:
        """Write hitting the L1 also dirties/ups the L2 copy (coherence)."""
        state = self.l2.probe(line)
        if state is None:
            return
        if state in (LineState.SHARED, LineState.OWNED):
            self.domain.upgrade_line(cycle, self.cpu, line)
        self.l2.downgrade(line, LineState.MODIFIED)

    # ------------------------------------------------------------------
    # Snoop-side operations (called by the coherence domain).
    # ------------------------------------------------------------------

    def snoop_probe(self, line: int) -> Optional[LineState]:
        """State of ``line`` in this processor's L2 (no LRU update)."""
        return self.l2.probe(line)

    def snoop_downgrade(self, line: int, state: LineState) -> Optional[LineState]:
        """Downgrade/invalidate ``line`` in L2 and both L1s."""
        previous = self.l2.downgrade(line, state)
        if state == LineState.INVALID:
            self.l1d.invalidate(line)
            self.l1i.invalidate(line)
        elif state in (LineState.SHARED, LineState.OWNED):
            # L1 copies lose write permission.
            self.l1d.downgrade(line, LineState.SHARED)
        return previous
