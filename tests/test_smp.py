"""Unit and integration tests for the SMP coherence domain and system."""

import pytest

from repro.analysis.workloads import smp_workload
from repro.common.errors import ConfigError, SimulationError
from repro.memory.cache import LineState
from repro.memory.coherence import CoherenceDomain
from repro.model.simulator import build_hierarchy
from repro.smp.system import SmpSystem, run_smp
from repro.trace.synth import build_smp_generators, standard_profiles


@pytest.fixture
def domain(small_config):
    domain = CoherenceDomain(small_config.system_bus, small_config.memory)
    hierarchies = [build_hierarchy(small_config, domain, cpu) for cpu in range(2)]
    return domain, hierarchies


LINE = 0x8000


class TestProtocol:
    def test_read_miss_from_memory_exclusive(self, domain):
        dom, (a, b) = domain
        result = dom.fetch_line(0, cpu=0, line_addr=LINE, is_write=False)
        assert not result.from_cache
        assert result.state == LineState.EXCLUSIVE

    def test_read_of_clean_remote_installs_shared(self, domain):
        dom, (a, b) = domain
        a.l2.fill(LINE, state=LineState.EXCLUSIVE)
        result = dom.fetch_line(0, cpu=1, line_addr=LINE, is_write=False)
        assert result.state == LineState.SHARED

    def test_dirty_remote_serves_cache_to_cache(self, domain):
        dom, (a, b) = domain
        a.l2.fill(LINE, state=LineState.MODIFIED)
        result = dom.fetch_line(0, cpu=1, line_addr=LINE, is_write=False)
        assert result.from_cache  # the move-out of §3.3
        assert result.state == LineState.SHARED
        assert a.l2.probe(LINE) == LineState.OWNED
        assert dom.stats.cache_to_cache == 1

    def test_write_miss_invalidates_remotes(self, domain):
        dom, (a, b) = domain
        a.l2.fill(LINE, state=LineState.SHARED)
        result = dom.fetch_line(0, cpu=1, line_addr=LINE, is_write=True)
        assert result.state == LineState.MODIFIED
        assert a.l2.probe(LINE) is None
        assert dom.stats.invalidations_sent == 1

    def test_write_miss_pulls_dirty_line(self, domain):
        dom, (a, b) = domain
        a.l2.fill(LINE, state=LineState.MODIFIED)
        result = dom.fetch_line(0, cpu=1, line_addr=LINE, is_write=True)
        assert result.from_cache
        assert a.l2.probe(LINE) is None

    def test_upgrade_invalidates(self, domain):
        dom, (a, b) = domain
        a.l2.fill(LINE, state=LineState.SHARED)
        b.l2.fill(LINE, state=LineState.SHARED)
        dom.upgrade_line(0, cpu=1, line_addr=LINE)
        assert a.l2.probe(LINE) is None
        assert b.l2.probe(LINE) == LineState.SHARED  # requester keeps its copy

    def test_snoop_invalidation_reaches_l1(self, domain):
        dom, (a, b) = domain
        a.l2.fill(LINE, state=LineState.SHARED)
        a.l1d.fill(LINE, state=LineState.SHARED)
        dom.fetch_line(0, cpu=1, line_addr=LINE, is_write=True)
        assert a.l1d.probe(LINE) is None

    def test_cache_to_cache_faster_than_memory(self, domain):
        dom, (a, b) = domain
        a.l2.fill(LINE, state=LineState.MODIFIED)
        remote = dom.fetch_line(0, cpu=1, line_addr=LINE, is_write=False)
        cold = dom.fetch_line(0, cpu=1, line_addr=0x20000, is_write=False)
        assert remote.ready_cycle < cold.ready_cycle

    def test_duplicate_cpu_rejected(self, domain, small_config):
        dom, (a, b) = domain
        dup = build_hierarchy(small_config, cpu=0)
        with pytest.raises(SimulationError):
            dom.attach(dup)


class TestSmpSystem:
    @pytest.fixture(scope="class")
    def smp_result(self):
        from repro.model.config import MachineConfig
        from repro.frontend.bht import BhtParams
        from repro.memory.params import (
            BusParams, CacheGeometry, MemoryParams, PrefetchParams, TlbGeometry,
        )

        config = MachineConfig(
            name="small-smp",
            l1i=CacheGeometry("L1I", 8 * 1024, 2, hit_latency=3, mshr_count=4),
            l1d=CacheGeometry("L1D", 8 * 1024, 2, hit_latency=4, mshr_count=4,
                              banks=8, bank_bytes=4),
            l2=CacheGeometry("L2", 64 * 1024, 4, hit_latency=12, mshr_count=8),
            itlb=TlbGeometry("ITLB", entries=16, ways=4, miss_penalty=20),
            dtlb=TlbGeometry("DTLB", entries=16, ways=4, miss_penalty=20),
            l1_l2_bus=BusParams("l1l2", latency=2, bytes_per_cycle=32),
            system_bus=BusParams("sys", latency=10, bytes_per_cycle=8),
            memory=MemoryParams(latency=60, channels=2, channel_occupancy=8),
            prefetch=PrefetchParams(streams=8),
            bht=BhtParams("small-bht", entries=256, ways=4, access_latency=2),
        )
        traces, _ = smp_workload(2, seed=3, warm=1000, timed=3000).smp_traces(2)
        return run_smp(config, traces, warmup_fraction=0.25)

    def test_all_cpus_commit(self, smp_result):
        assert smp_result.cpu_count == 2
        assert smp_result.total_instructions == 2 * 3000

    def test_system_ipc_positive(self, smp_result):
        assert smp_result.ipc > 0
        assert smp_result.per_cpu_ipc <= smp_result.ipc

    def test_coherence_traffic_happened(self, smp_result):
        coherence = smp_result.coherence
        assert coherence["read_misses"] + coherence["write_misses"] > 0

    def test_per_cpu_results(self, smp_result):
        assert len(smp_result.per_cpu) == 2
        for result in smp_result.per_cpu:
            assert result.instructions == 3000

    def test_as_dict(self, smp_result):
        data = smp_result.as_dict()
        assert data["cpus"] == 2
        assert "coherence" in data

    def test_empty_traces_rejected(self, small_config):
        with pytest.raises(ConfigError):
            SmpSystem(small_config, [])

    def test_sharing_causes_invalidations(self, small_config):
        profile = standard_profiles()["TPC-C"].derived(
            shared_access_fraction=0.2, shared_write_fraction=0.5
        )
        traces = [g.generate(6000) for g in build_smp_generators(profile, 2, seed=5)]
        result = run_smp(small_config, traces, warmup_fraction=0.2)
        assert (
            result.coherence["invalidations_sent"]
            + result.coherence["upgrades"]
            + result.coherence["cache_to_cache"]
            > 0
        )


class TestBusAccounting:
    """Each system-bus transfer is counted against the CPU that caused it."""

    def test_transfers_count_against_requester(self, domain):
        dom, (a, b) = domain
        b.l2.fill(LINE, state=LineState.MODIFIED)
        dom.fetch_line(0, cpu=0, line_addr=LINE, is_write=False)  # move-out
        dom.write_back(0, cpu=1)
        bus = dom.system_bus
        line_cycles = bus.params.occupancy(dom.line_bytes)
        assert dom.bus_busy_by_cpu == {
            0: bus.params.occupancy(8) + line_cycles,
            1: line_cycles,
        }
        assert sum(dom.bus_busy_by_cpu.values()) == bus.busy_cycles

    def test_per_cpu_busy_cycles_sum_to_shared_bus(self, small_config):
        profile = standard_profiles()["TPC-C"].derived(
            shared_access_fraction=0.2, shared_write_fraction=0.5
        )
        traces = [g.generate(6000) for g in build_smp_generators(profile, 2, seed=5)]
        system = SmpSystem(small_config, traces, warmup_fraction=0.2)
        result = system.run()
        busy = system.domain.bus_busy_by_cpu
        assert all(cycles > 0 for cycles in busy.values())
        assert sum(busy.values()) == system.domain.system_bus.busy_cycles
        per_cpu = [r.system_bus_utilization for r in result.per_cpu]
        assert all(u < result.system_bus_utilization for u in per_cpu)
        assert sum(per_cpu) == pytest.approx(result.system_bus_utilization)

    def test_one_cpu_equals_shared_figure(self, small_config):
        traces, _ = smp_workload(1, seed=3, warm=1000, timed=3000).smp_traces(1)
        result = run_smp(small_config, traces, warmup_fraction=0.25)
        assert result.system_bus_utilization > 0
        assert result.per_cpu[0].system_bus_utilization == result.system_bus_utilization
