"""Unit tests for the set-associative cache model."""

import pytest

from repro.common.errors import ConfigError, SimulationError
from repro.memory.cache import LineState, SetAssociativeCache
from repro.memory.params import CacheGeometry


def make_cache(size=4096, ways=2, line=64, **kwargs):
    return SetAssociativeCache(
        CacheGeometry("test", size, ways, line_bytes=line, **kwargs)
    )


class TestGeometry:
    def test_sets(self):
        cache = make_cache(size=4096, ways=2, line=64)
        assert cache.geometry.sets == 32

    def test_invalid_geometry(self):
        with pytest.raises(ConfigError):
            CacheGeometry("bad", 4096, 3)  # sets not a power of two
        with pytest.raises(ConfigError):
            CacheGeometry("bad", 0, 1)
        with pytest.raises(ConfigError):
            CacheGeometry("bad", 4096, 2, line_bytes=48)

    def test_line_addr(self):
        cache = make_cache()
        assert cache.line_addr(0x1234) == 0x1200

    def test_bank_of(self):
        cache = make_cache(banks=8, bank_bytes=4)
        assert cache.bank_of(0) == 0
        assert cache.bank_of(4) == 1
        assert cache.bank_of(32) == 0


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        assert not cache.lookup(0x1000)
        cache.fill(0x1000)
        assert cache.lookup(0x1000)
        assert cache.stats.demand_accesses == 2
        assert cache.stats.demand_misses == 1

    def test_same_line_offsets_hit(self):
        cache = make_cache()
        cache.fill(0x1000)
        assert cache.lookup(0x1038)  # same 64B line

    def test_probe_does_not_count(self):
        cache = make_cache()
        cache.fill(0x1000)
        cache.probe(0x1000)
        assert cache.stats.demand_accesses == 0

    def test_prefetch_stats_separate(self):
        cache = make_cache()
        cache.lookup(0x1000, prefetch=True)
        assert cache.stats.prefetch_accesses == 1
        assert cache.stats.prefetch_misses == 1
        assert cache.stats.demand_accesses == 0

    def test_prefetch_useful_counted_once(self):
        cache = make_cache()
        cache.fill(0x1000, from_prefetch=True)
        cache.lookup(0x1000)
        cache.lookup(0x1000)
        assert cache.stats.prefetch_useful == 1


class TestReplacement:
    def test_lru_evicts_oldest(self):
        cache = make_cache(size=128, ways=2, line=64)  # 1 set, 2 ways
        cache.fill(0x0000)
        cache.fill(0x1000)
        cache.lookup(0x0000)  # touch to make 0x1000 the LRU
        evicted = cache.fill(0x2000)
        assert evicted is not None
        assert evicted.line_addr == 0x1000

    def test_dirty_eviction_reported(self):
        cache = make_cache(size=128, ways=1, line=64)
        cache.fill(0x0000, state=LineState.MODIFIED)
        evicted = cache.fill(0x1000)
        assert evicted.dirty
        assert cache.stats.writebacks == 1

    def test_clean_eviction_not_writeback(self):
        cache = make_cache(size=128, ways=1, line=64)
        cache.fill(0x0000, state=LineState.SHARED)
        evicted = cache.fill(0x1000)
        assert not evicted.dirty
        assert cache.stats.writebacks == 0

    def test_refill_existing_line_no_eviction(self):
        cache = make_cache()
        cache.fill(0x1000)
        assert cache.fill(0x1000) is None

    def test_direct_mapped_conflicts(self):
        cache = make_cache(size=128, ways=1, line=64)  # 2 sets
        cache.fill(0x0000)
        # Find another line that maps to the same (hashed) set.
        target_set = cache._set_of(0x0000)[0]
        conflicting = next(
            addr for addr in range(0x40, 0x4000, 0x40)
            if cache._set_of(addr)[0] is target_set
        )
        cache.fill(conflicting)
        assert not cache.resident(0x0000)


class TestCoherenceStates:
    def test_write_makes_modified(self):
        cache = make_cache()
        cache.fill(0x1000, state=LineState.SHARED)
        cache.lookup(0x1000, is_write=True)
        assert cache.probe(0x1000) == LineState.MODIFIED

    def test_downgrade(self):
        cache = make_cache()
        cache.fill(0x1000, state=LineState.MODIFIED)
        previous = cache.downgrade(0x1000, LineState.OWNED)
        assert previous == LineState.MODIFIED
        assert cache.probe(0x1000) == LineState.OWNED

    def test_invalidate(self):
        cache = make_cache()
        cache.fill(0x1000)
        cache.invalidate(0x1000)
        assert not cache.resident(0x1000)
        assert cache.stats.invalidations_received == 1

    def test_invalidate_missing_line(self):
        cache = make_cache()
        assert cache.invalidate(0x1000) is None

    def test_dirty_states(self):
        assert LineState.MODIFIED.is_dirty
        assert LineState.OWNED.is_dirty
        assert not LineState.SHARED.is_dirty
        assert not LineState.EXCLUSIVE.is_dirty

    def test_fill_invalid_rejected(self):
        cache = make_cache()
        with pytest.raises(SimulationError):
            cache.fill(0x1000, state=LineState.INVALID)

    def test_valid_line_count(self):
        cache = make_cache()
        cache.fill(0x1000)
        cache.fill(0x2000)
        assert cache.valid_line_count() == 2
