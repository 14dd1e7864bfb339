"""TLB model.

Set-associative translation cache.  A miss costs a fixed hardware-walk
penalty (the SPARC64 V walks the TSB in hardware); the walk's own memory
traffic is folded into the penalty, which is how the paper's model treats
it (TLB stalls appear combined with L1 miss stalls in Figure 7's
"ibs/tlb" category).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.memory.params import TlbGeometry


@dataclass
class TlbStats:
    accesses: int = 0
    misses: int = 0

    @property
    def miss_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class Tlb:
    """A set-associative TLB with true LRU.

    Each set is a dict keyed by page number (values unused) in recency
    order, least recently used first.
    """

    def __init__(self, geometry: TlbGeometry) -> None:
        self.geometry = geometry
        sets = geometry.entries // geometry.ways
        self._sets: List[Dict[int, None]] = [{} for _ in range(sets)]
        self._set_mask = sets - 1
        self._page_shift = geometry.page_bytes.bit_length() - 1
        self.stats = TlbStats()

    def translate(self, addr: int) -> int:
        """Look up the page of ``addr``; returns extra cycles (0 on hit)."""
        page = addr >> self._page_shift
        bucket = self._sets[page & self._set_mask]
        self.stats.accesses += 1
        if page in bucket:
            del bucket[page]
            bucket[page] = None
            return 0
        # Miss: walk, then install with LRU replacement.
        self.stats.misses += 1
        if len(bucket) == self.geometry.ways:
            del bucket[next(iter(bucket))]
        bucket[page] = None
        return self.geometry.miss_penalty
