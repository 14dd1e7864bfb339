"""Unit tests for MSHRs, bus, DRAM controller, and TLB."""

import pytest

from repro.common.errors import SimulationError
from repro.memory.bus import Bus
from repro.memory.dram import MemoryController
from repro.memory.mshr import MshrFile
from repro.memory.params import BusParams, MemoryParams, TlbGeometry
from repro.memory.tlb import Tlb


class TestMshr:
    def test_coalescing(self):
        mshr = MshrFile(4)
        mshr.allocate(0x1000, ready_cycle=100, cycle=0)
        assert mshr.outstanding(0x1000, 50) == 100
        assert mshr.coalesced == 1

    def test_matured_entries_not_outstanding(self):
        mshr = MshrFile(4)
        mshr.allocate(0x1000, ready_cycle=100, cycle=0)
        assert mshr.outstanding(0x1000, 100) is None

    def test_capacity(self):
        mshr = MshrFile(2)
        mshr.allocate(0x1000, 100, 0)
        mshr.allocate(0x2000, 100, 0)
        assert not mshr.can_allocate(0)
        assert mshr.full_stalls == 1

    def test_reclaim_after_maturity(self):
        mshr = MshrFile(1)
        mshr.allocate(0x1000, 100, 0)
        assert mshr.can_allocate(101)

    def test_next_free(self):
        mshr = MshrFile(2)
        mshr.allocate(0x1000, 50, 0)
        mshr.allocate(0x2000, 80, 0)
        assert mshr.next_free_cycle() == 50

    def test_overallocate_raises(self):
        mshr = MshrFile(1)
        mshr.allocate(0x1000, 100, 0)
        with pytest.raises(SimulationError):
            mshr.allocate(0x2000, 100, 0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            MshrFile(0)


class TestBus:
    def test_uncontended_transfer(self):
        bus = Bus(BusParams("b", latency=10, bytes_per_cycle=16))
        timing = bus.transfer(0, 64)
        assert timing.start == 0
        assert timing.done == 10 + 4  # latency + 64/16 occupancy
        assert timing.queue_delay == 0

    def test_queueing(self):
        bus = Bus(BusParams("b", latency=10, bytes_per_cycle=16))
        bus.transfer(0, 64)  # occupies until cycle 4
        timing = bus.transfer(1, 64)
        assert timing.start == 4
        assert timing.queue_delay == 3
        assert bus.conflict_cycles == 3

    def test_minimum_occupancy(self):
        bus = Bus(BusParams("b", latency=0, bytes_per_cycle=64))
        timing = bus.transfer(0, 8)
        assert timing.done == 1

    def test_utilization(self):
        bus = Bus(BusParams("b", latency=0, bytes_per_cycle=16))
        bus.transfer(0, 64)
        assert bus.utilization(8) == pytest.approx(0.5)

    def test_reset(self):
        bus = Bus(BusParams("b"))
        bus.transfer(0, 64)
        bus.reset()
        assert bus.transfers == 0
        assert bus.busy_until == 0


class TestMemoryController:
    def test_fixed_latency(self):
        memory = MemoryController(MemoryParams(latency=100, channels=2,
                                               channel_occupancy=10))
        assert memory.request(0, 0) == 100

    def test_channel_interleaving(self):
        memory = MemoryController(MemoryParams(latency=100, channels=2,
                                               channel_occupancy=10))
        first = memory.request(0, 0)        # channel 0
        second = memory.request(0, 64)      # channel 1 (next line)
        assert first == second == 100  # parallel channels

    def test_same_channel_queues(self):
        memory = MemoryController(MemoryParams(latency=100, channels=2,
                                               channel_occupancy=10))
        memory.request(0, 0)
        queued = memory.request(0, 128)  # same channel (line 2)
        assert queued == 110
        assert memory.queue_cycles == 10

    def test_reset(self):
        memory = MemoryController(MemoryParams())
        memory.request(0, 0)
        memory.reset()
        assert memory.requests == 0


class TestTlb:
    def test_miss_then_hit(self):
        tlb = Tlb(TlbGeometry("t", entries=8, ways=2, miss_penalty=30))
        assert tlb.translate(0x10000) == 30
        assert tlb.translate(0x10000) == 0
        assert tlb.stats.misses == 1
        assert tlb.stats.accesses == 2

    def test_same_page_hits(self):
        tlb = Tlb(TlbGeometry("t", entries=8, ways=2, page_bytes=8192))
        tlb.translate(0x10000)
        assert tlb.translate(0x10000 + 4096) == 0

    def test_capacity_eviction(self):
        tlb = Tlb(TlbGeometry("t", entries=2, ways=1, page_bytes=8192,
                              miss_penalty=30))
        tlb.translate(0x0000)
        tlb.translate(0x2000 * 2)  # same set (2 sets, page stride)
        assert tlb.translate(0x0000) == 30  # evicted

    def test_miss_ratio(self):
        tlb = Tlb(TlbGeometry("t", entries=8, ways=2))
        tlb.translate(0x10000)
        tlb.translate(0x10000)
        assert tlb.stats.miss_ratio == pytest.approx(0.5)
