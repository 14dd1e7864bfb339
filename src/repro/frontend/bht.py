"""Branch history table.

The SPARC64 V uses a 16K-entry, 4-way set-associative BHT with a 2-cycle
access (Table 1); §4.3.2 studies it against a 4K-entry, 2-way, 1-cycle
table.  The access latency matters because a predicted-taken branch
inserts ``access_latency`` fetch bubbles before the target can be fetched
("4k-2w.1t ... generates one bubble in a pipeline before it fetches a
target instruction while 16k-4w.2t generates two bubbles").

The table is tagged (set-associative), entries hold 2-bit saturating
direction counters, and entries are allocated on taken branches — so a
taken branch that has been evicted (capacity/conflict) predicts
not-taken, which is how BHT capacity shows up as mispredictions on
large-footprint workloads (TPC-C, Figure 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.common.errors import ConfigError
from repro.common.units import is_power_of_two


@dataclass(frozen=True)
class BhtParams:
    """Geometry and timing of the branch history table."""

    name: str
    entries: int = 16 * 1024
    ways: int = 4
    #: Access latency in cycles = fetch bubbles per predicted-taken branch.
    access_latency: int = 2

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.ways <= 0:
            raise ConfigError(f"{self.name}: entries/ways must be positive")
        if self.entries % self.ways != 0:
            raise ConfigError(f"{self.name}: entries must divide into ways")
        if not is_power_of_two(self.entries // self.ways):
            raise ConfigError(f"{self.name}: BHT set count must be a power of two")
        if self.access_latency < 1:
            raise ConfigError(f"{self.name}: access latency must be >= 1")


#: The paper's production configuration (Table 1).
BHT_16K_4W_2T = BhtParams(name="16k-4w.2t", entries=16 * 1024, ways=4, access_latency=2)

#: The §4.3.2 alternative.
BHT_4K_2W_1T = BhtParams(name="4k-2w.1t", entries=4 * 1024, ways=2, access_latency=1)


@dataclass
class BhtStats:
    """Prediction outcome counters."""

    conditional_branches: int = 0
    mispredictions: int = 0
    taken_misses: int = 0  # taken branches absent from the table

    @property
    def misprediction_ratio(self) -> float:
        """Fraction of conditional branches mispredicted (Figure 10)."""
        if self.conditional_branches == 0:
            return 0.0
        return self.mispredictions / self.conditional_branches


class BranchHistoryTable:
    """Tagged, set-associative, 2-bit-counter direction predictor.

    Each set is a dict from word address to counter that holds only
    allocated entries, in recency order, least recently used first; a
    full set evicts its first entry.
    """

    def __init__(self, params: BhtParams) -> None:
        self.params = params
        sets = params.entries // params.ways
        self._sets: List[Dict[int, int]] = [{} for _ in range(sets)]
        self._set_mask = sets - 1
        self.stats = BhtStats()

    def predict(self, pc: int) -> bool:
        """Predict the direction of the conditional branch at ``pc``.

        A branch with no table entry predicts not-taken.
        """
        word = pc >> 2
        return self._sets[word & self._set_mask].get(word, 0) >= 2

    def warm(self, pc: int, taken: bool) -> None:
        """Functionally train the predictor with one resolved branch.

        Used by warm-up phases (full-run trace prefix, sampled-simulation
        per-window warming): identical table updates to the timed path,
        with the prediction looked up first so accuracy counters stay
        meaningful until the caller resets them.
        """
        self.update(pc, taken, self.predict(pc))

    def update(self, pc: int, taken: bool, predicted: bool) -> None:
        """Train the table with the resolved outcome and log accuracy."""
        self.stats.conditional_branches += 1
        if taken != predicted:
            self.stats.mispredictions += 1
        word = pc >> 2
        bucket = self._sets[word & self._set_mask]
        counter = bucket.pop(word, None)
        if counter is None:
            if not taken:
                return  # not-taken branches are not allocated
            self.stats.taken_misses += 1
            if len(bucket) == self.params.ways:
                del bucket[next(iter(bucket))]
            bucket[word] = 2  # weakly taken
        elif taken:
            bucket[word] = min(3, counter + 1)
        else:
            bucket[word] = max(0, counter - 1)
