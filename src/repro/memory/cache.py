"""Set-associative cache with true LRU and coherence states.

This is the tag-array model shared by every cache level (L1I, L1D, L2).
It tracks hit/miss outcomes and line states; the *timing* of misses is
handled by the enclosing level in :mod:`repro.memory.hierarchy`, which
owns the MSHRs and the path to the next level.

States follow a MOESI-style protocol so the same model serves both the
uniprocessor runs and the SMP coherence domain (§3.3's "move-out"
requests are transfers of M/O lines between L2 caches).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.errors import SimulationError
from repro.memory.params import CacheGeometry


class LineState(IntEnum):
    """MOESI coherence state of a cache line."""

    INVALID = 0
    SHARED = 1
    EXCLUSIVE = 2
    OWNED = 3
    MODIFIED = 4

    @property
    def is_dirty(self) -> bool:
        return self in (LineState.MODIFIED, LineState.OWNED)


@dataclass
class CacheStats:
    """Hit/miss counters for one cache, split by request origin."""

    demand_accesses: int = 0
    demand_misses: int = 0
    prefetch_accesses: int = 0
    prefetch_misses: int = 0
    writebacks: int = 0
    invalidations_received: int = 0
    #: Demand misses that hit a line brought in by a prefetch.
    prefetch_useful: int = 0

    @property
    def demand_miss_ratio(self) -> float:
        """Demand miss ratio (the paper's per-cache miss figures)."""
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_misses / self.demand_accesses

    @property
    def total_miss_ratio(self) -> float:
        """Miss ratio over all requests including prefetches (Fig. 17 'with')."""
        total = self.demand_accesses + self.prefetch_accesses
        if total == 0:
            return 0.0
        return (self.demand_misses + self.prefetch_misses) / total

    def as_dict(self) -> Dict[str, float]:
        return {
            "demand_accesses": self.demand_accesses,
            "demand_misses": self.demand_misses,
            "demand_miss_ratio": round(self.demand_miss_ratio, 6),
            "prefetch_accesses": self.prefetch_accesses,
            "prefetch_misses": self.prefetch_misses,
            "total_miss_ratio": round(self.total_miss_ratio, 6),
            "writebacks": self.writebacks,
            "invalidations_received": self.invalidations_received,
            "prefetch_useful": self.prefetch_useful,
        }


@dataclass
class EvictedLine:
    """Description of a line displaced by a fill."""

    line_addr: int
    state: LineState

    @property
    def dirty(self) -> bool:
        return self.state.is_dirty


class SetAssociativeCache:
    """Tag array with per-set true LRU replacement.

    Each set is a dict from full line number to :class:`LineState` that
    holds only valid lines, in recency order, least recently used first:
    a hit pops its key and reinserts it, a fill into a full set evicts
    the first key, and an invalidation deletes the key.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self._sets: List[Dict[int, LineState]] = [{} for _ in range(geometry.sets)]
        self._ways = geometry.ways
        self._set_mask = geometry.sets - 1
        self._set_bits = geometry.sets.bit_length() - 1
        self._line_shift = geometry.line_bytes.bit_length() - 1
        #: Resident lines installed by a prefetch and not yet demanded.
        self._prefetched: Set[int] = set()
        self.stats = CacheStats()

    # -- address helpers -------------------------------------------------

    def line_addr(self, addr: int) -> int:
        """Line-aligned address containing ``addr``."""
        return addr >> self._line_shift << self._line_shift

    def _set_of(self, addr: int) -> Tuple[Dict[int, LineState], int]:
        line = addr >> self._line_shift
        # XOR-fold the upper line bits into the index.  The simulator works
        # on virtual addresses; real systems scatter page placement through
        # virtual-to-physical translation, so naturally-aligned region
        # bases (all powers of two here) would otherwise pathologically
        # collide in set 0 of large caches.  The fold stands in for that
        # translation scramble.  The key stays the full line number, so
        # correctness is unaffected.
        return self._sets[(line ^ (line >> self._set_bits)) & self._set_mask], line

    def bank_of(self, addr: int) -> int:
        """Bank index for the L1 operand cache's 8 × 4 B interleave."""
        return (addr // self.geometry.bank_bytes) % self.geometry.banks

    # -- lookups ----------------------------------------------------------

    def probe(self, addr: int) -> Optional[LineState]:
        """State of the line containing ``addr`` without updating LRU."""
        bucket, line = self._set_of(addr)
        return bucket.get(line)

    def lookup(self, addr: int, is_write: bool = False, prefetch: bool = False) -> bool:
        """Access the cache; returns True on hit.

        Updates LRU and statistics.  A write hit upgrades the line to
        MODIFIED (write-allocate copy-back, as in the SPARC64 V's L1).
        Upgrade traffic for writes hitting SHARED lines is handled by the
        coherence domain, not here.
        """
        bucket, line = self._set_of(addr)
        state = bucket.pop(line, None)
        hit = state is not None
        if hit:
            bucket[line] = LineState.MODIFIED if is_write else state
            if not prefetch and line in self._prefetched:
                self._prefetched.remove(line)
                self.stats.prefetch_useful += 1
        if prefetch:
            self.stats.prefetch_accesses += 1
            if not hit:
                self.stats.prefetch_misses += 1
        else:
            self.stats.demand_accesses += 1
            if not hit:
                self.stats.demand_misses += 1
        return hit

    # -- fills and removals ----------------------------------------------

    def fill(
        self,
        addr: int,
        state: LineState = LineState.EXCLUSIVE,
        from_prefetch: bool = False,
    ) -> Optional[EvictedLine]:
        """Install the line containing ``addr``; returns any eviction.

        Filling a line that is already present just updates its state
        (e.g. a fetch racing a prefetch) and evicts nothing.
        """
        if state == LineState.INVALID:
            raise SimulationError("cannot fill a line to INVALID")
        bucket, line = self._set_of(addr)
        if bucket.pop(line, None) is not None:
            bucket[line] = state
            return None
        evicted: Optional[EvictedLine] = None
        if len(bucket) == self._ways:
            victim = next(iter(bucket))
            evicted = EvictedLine(
                line_addr=victim << self._line_shift, state=bucket.pop(victim)
            )
            self._prefetched.discard(victim)
            if evicted.dirty:
                self.stats.writebacks += 1
        bucket[line] = state
        if from_prefetch:
            self._prefetched.add(line)
        return evicted

    def install_touched(self, spans: Sequence[range]) -> None:
        """Install what demand touches of ``spans``, in order, leave resident.

        Equivalent to ``if not lookup(a): fill(a)`` for every address of
        every span on this (empty) cache, minus the statistics: each set
        ends up holding the last ``ways`` distinct lines touched in it,
        all EXCLUSIVE, least recently used first.  The touches are walked
        backwards, each set keeping the first ``ways`` distinct lines it
        sees, until every set is full; each set is then reversed into LRU
        order.
        """
        if any(self._sets):
            raise SimulationError(
                f"{self.geometry.name}: install_touched needs an empty cache"
            )
        ways = self._ways
        unfilled = len(self._sets)
        for addr in chain.from_iterable(reversed(span) for span in reversed(spans)):
            bucket, line = self._set_of(addr)
            if len(bucket) < ways and line not in bucket:
                bucket[line] = LineState.EXCLUSIVE
                if len(bucket) == ways:
                    unfilled -= 1
                    if not unfilled:
                        break
        # One set at a time, so each replaced dict is freed before the next
        # is built.
        for index, bucket in enumerate(self._sets):
            if len(bucket) > 1:
                self._sets[index] = dict.fromkeys(reversed(bucket), LineState.EXCLUSIVE)

    def downgrade(self, addr: int, state: LineState) -> Optional[LineState]:
        """Change the line's state (snoop response); returns prior state.

        Downgrading to INVALID removes the line; any other state is set
        in place, leaving the line's LRU position unchanged.
        """
        bucket, line = self._set_of(addr)
        previous = bucket.get(line)
        if previous is None:
            return None
        if state == LineState.INVALID:
            del bucket[line]
            self._prefetched.discard(line)
            self.stats.invalidations_received += 1
        else:
            bucket[line] = state
        return previous

    def invalidate(self, addr: int) -> Optional[LineState]:
        """Invalidate the line containing ``addr``; returns prior state."""
        return self.downgrade(addr, LineState.INVALID)

    # -- introspection ----------------------------------------------------

    def valid_line_count(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(bucket) for bucket in self._sets)

    def resident(self, addr: int) -> bool:
        """True if the line containing ``addr`` is valid in the cache."""
        return self.probe(addr) is not None
