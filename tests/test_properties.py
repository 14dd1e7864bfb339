"""Property-based tests (hypothesis) on core data structures and invariants."""

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.workloads import smp_workload, standard_workloads, workload_by_name
from repro.common.errors import SimulationError, TraceError
from repro.common.rng import DeterministicRng
from repro.memory.bus import Bus
from repro.memory.cache import CacheStats, EvictedLine, LineState, SetAssociativeCache
from repro.memory.mshr import MshrFile
from repro.memory.params import BusParams, CacheGeometry, TlbGeometry
from repro.memory.tlb import Tlb, TlbStats
from repro.frontend.bht import BhtParams, BhtStats, BranchHistoryTable
from repro.model.config import base_config
from repro.model.simulator import build_hierarchy, prewarm_regions, warm_up
from repro.trace.io import read_trace, write_trace
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace
from repro.isa.opcodes import OpClass


# ---------------------------------------------------------------------------
# Cache invariants.
# ---------------------------------------------------------------------------

addresses = st.integers(min_value=0, max_value=(1 << 40) - 1)


@given(st.lists(st.tuples(addresses, st.booleans()), min_size=1, max_size=300))
@settings(max_examples=50, deadline=None)
def test_cache_capacity_never_exceeded(operations):
    cache = SetAssociativeCache(CacheGeometry("c", 1024, 2, line_bytes=64))
    capacity = cache.geometry.sets * cache.geometry.ways
    for address, is_write in operations:
        if not cache.lookup(address, is_write=is_write):
            cache.fill(
                address,
                state=LineState.MODIFIED if is_write else LineState.EXCLUSIVE,
            )
        assert cache.valid_line_count() <= capacity


@given(st.lists(addresses, min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_cache_fill_makes_resident(addrs):
    cache = SetAssociativeCache(CacheGeometry("c", 4096, 4, line_bytes=64))
    for address in addrs:
        cache.fill(address)
        assert cache.resident(address)  # most recent fill always present


@given(st.lists(addresses, min_size=1, max_size=200))
@settings(max_examples=30, deadline=None)
def test_cache_stats_consistent(addrs):
    cache = SetAssociativeCache(CacheGeometry("c", 2048, 2, line_bytes=64))
    for address in addrs:
        if not cache.lookup(address):
            cache.fill(address)
    stats = cache.stats
    assert stats.demand_misses <= stats.demand_accesses == len(addrs)
    assert 0.0 <= stats.demand_miss_ratio <= 1.0


class _SlotCache:
    """Oracle: a tag array that pre-allocates ``ways`` slots per set,
    each ``[tag, state, lru, from_prefetch]`` under one LRU clock, and
    fills the first invalid slot before evicting the least ``lru``."""

    def __init__(self, geometry):
        self.sets = [[[-1, LineState.INVALID, 0, False] for _ in range(geometry.ways)]
                     for _ in range(geometry.sets)]
        self.shift = geometry.line_bytes.bit_length() - 1
        self.bits = geometry.sets.bit_length() - 1
        self.clock, self.stats = 0, CacheStats()

    def _find(self, addr):
        line = addr >> self.shift
        bucket = self.sets[(line ^ (line >> self.bits)) % len(self.sets)]
        return bucket, line, next((s for s in bucket if s[0] == line and s[1]), None)

    def probe(self, addr):
        slot = self._find(addr)[2]
        return slot[1] if slot else None

    def lookup(self, addr, is_write, prefetch):
        self.clock += 1
        slot = self._find(addr)[2]
        if slot:
            slot[2] = self.clock
            slot[1] = LineState.MODIFIED if is_write else slot[1]
            self.stats.prefetch_useful += slot[3] and not prefetch
            slot[3] = slot[3] and prefetch
        kind = "prefetch" if prefetch else "demand"
        setattr(self.stats, f"{kind}_accesses", getattr(self.stats, f"{kind}_accesses") + 1)
        setattr(self.stats, f"{kind}_misses", getattr(self.stats, f"{kind}_misses") + (not slot))
        return bool(slot)

    def fill(self, addr, state, from_prefetch):
        self.clock += 1
        bucket, line, slot = self._find(addr)
        if slot:
            slot[1:3] = [state, self.clock]
            return None
        free = [s for s in bucket if not s[1]]
        victim = free[0] if free else min(bucket, key=lambda s: s[2])
        evicted = EvictedLine(victim[0] << self.shift, victim[1]) if victim[1] else None
        self.stats.writebacks += bool(evicted and evicted.dirty)
        victim[:] = [line, state, self.clock, from_prefetch]
        return evicted

    def downgrade(self, addr, state):
        slot = self._find(addr)[2]
        if not slot:
            return None
        previous, slot[1] = slot[1], state
        self.stats.invalidations_received += state == LineState.INVALID
        return previous

    def invalidate(self, addr):
        return self.downgrade(addr, LineState.INVALID)


class _SlotTlb:
    """Oracle: the TLB as pre-allocated ``[valid, page, lru]`` slots."""

    def __init__(self, geometry):
        self.sets = [[[False, -1, 0] for _ in range(geometry.ways)]
                     for _ in range(geometry.entries // geometry.ways)]
        self.shift = geometry.page_bytes.bit_length() - 1
        self.geometry, self.clock, self.stats = geometry, 0, TlbStats()

    def translate(self, addr):
        page = addr >> self.shift
        bucket = self.sets[page % len(self.sets)]
        self.clock += 1
        self.stats.accesses += 1
        entry = next((e for e in bucket if e[0] and e[1] == page), None)
        if entry:
            entry[2] = self.clock
            return 0
        self.stats.misses += 1
        free = [e for e in bucket if not e[0]]
        victim = free[0] if free else min(bucket, key=lambda e: e[2])
        victim[:] = [True, page, self.clock]
        return self.geometry.miss_penalty


#: 16 lines of 64 B: they conflict, and hit, in every geometry below.
line_addresses = st.integers(0, 16 * 64 - 1)
cache_operations = st.one_of(
    st.tuples(st.just("lookup"), line_addresses, st.booleans(), st.booleans()),
    st.tuples(st.just("fill"), line_addresses,
              st.sampled_from(list(LineState)[1:]), st.booleans()),
    st.tuples(st.just("probe"), line_addresses),
    st.tuples(st.just("downgrade"), line_addresses, st.sampled_from(list(LineState))),
    st.tuples(st.just("invalidate"), line_addresses),
)


@given(
    st.lists(cache_operations, min_size=100, max_size=400),
    # direct-mapped, 2-way, fully associative
    st.sampled_from([(512, 1), (512, 2), (256, 4)]),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_cache_matches_slot_oracle(operations, geometry):
    """Dict sets return, evict and count exactly like LRU-clocked slots."""
    size, ways = geometry
    cache = SetAssociativeCache(CacheGeometry("c", size, ways, line_bytes=64))
    oracle = _SlotCache(cache.geometry)
    for name, *args in operations:
        assert getattr(cache, name)(*args) == getattr(oracle, name)(*args), (name, args)
        assert cache.stats == oracle.stats, (name, args)
    assert cache.valid_line_count() == sum(bool(s[1]) for b in oracle.sets for s in b)


@given(
    st.lists(st.integers(0, 16 * 8192 - 1), min_size=100, max_size=400),
    st.sampled_from([(8, 1), (8, 2), (4, 4)]),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_tlb_matches_slot_oracle(addrs, geometry):
    entries, ways = geometry
    tlb = Tlb(TlbGeometry("t", entries=entries, ways=ways, page_bytes=8192))
    oracle = _SlotTlb(tlb.geometry)
    for address in addrs:
        assert tlb.translate(address) == oracle.translate(address), address
        assert tlb.stats == oracle.stats


# ---------------------------------------------------------------------------
# Closed-form pre-warm against the per-line touch loop it replaced.
# ---------------------------------------------------------------------------


def _touch_loop(hierarchy, regions):
    """Pre-warm by touching every L2 line of every region: the oracle."""
    line = hierarchy.l2.geometry.line_bytes

    def touch_span(base, size, data):
        for addr in range(base, base + size, line):
            if not hierarchy.l2.lookup(addr):
                hierarchy.l2.fill(addr)
            if data:
                if not hierarchy.l1d.lookup(addr):
                    hierarchy.l1d.fill(addr)
            else:
                if not hierarchy.l1i.lookup(addr):
                    hierarchy.l1i.fill(addr)

    hot_names = sorted(name for name in regions if name.endswith("_hot"))
    code_names = sorted(
        name for name in regions if "code" in name and not name.endswith("_hot")
    )
    cold_names = sorted(
        name for name in regions if name not in hot_names and name not in code_names
    )
    for name in cold_names + code_names + hot_names:
        base, size = regions[name]
        touch_span(base, size, data="data" in name)


def _assert_prewarm_matches_loop(make_hierarchy, regions):
    closed, looped = make_hierarchy(), make_hierarchy()
    prewarm_regions(closed, regions)
    _touch_loop(looped, regions)
    for level in ("l2", "l1d", "l1i"):
        cache, oracle = getattr(closed, level), getattr(looped, level)
        assert [list(s.items()) for s in cache._sets] == [
            list(s.items()) for s in oracle._sets
        ], level
        assert not cache._prefetched


def _assert_warm_up_zeroes_stats(config, trace, regions):
    hierarchy = build_hierarchy(config)
    bht = BranchHistoryTable(config.bht)
    warm_up(hierarchy, bht, trace, 0.5, regions)
    for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2):
        assert cache.stats == CacheStats()
    for tlb in (hierarchy.itlb, hierarchy.dtlb):
        assert tlb.stats == TlbStats()
    assert bht.stats == BhtStats()


@pytest.mark.parametrize("name", [w.name for w in standard_workloads(warm=500, timed=500)])
def test_prewarm_matches_touch_loop_on_standard_workloads(name):
    config = base_config()
    workload = workload_by_name(name, warm=500, timed=500)
    regions = workload.regions()
    _assert_prewarm_matches_loop(lambda: build_hierarchy(config), regions)
    _assert_warm_up_zeroes_stats(config, workload.trace(), regions)


@pytest.fixture(scope="module")
def tpcc_4p_traces():
    return smp_workload(4, warm=500, timed=500).smp_traces(4)


@pytest.mark.parametrize("cpu", range(4))
def test_prewarm_matches_touch_loop_on_every_4p_cpu(tpcc_4p_traces, cpu):
    config = base_config()
    traces, regions = tpcc_4p_traces
    _assert_prewarm_matches_loop(lambda: build_hierarchy(config, cpu=cpu), regions[cpu])
    _assert_warm_up_zeroes_stats(config, traces[cpu], regions[cpu])


#: Names with and without ``code``/``data``/``_hot``.
region_names = st.sampled_from(
    ["user_code", "user_data", "user_data_hot", "kernel_code", "kernel_data",
     "heap", "stack_hot", "misc"]
)
#: Often one of three close bases (one unaligned), so regions overlap.
region_bases = st.one_of(st.sampled_from([0, 0x800, 0x8A4]), st.integers(0, 1 << 20))
region_spans = st.tuples(region_bases, st.integers(0, 24 * 1024))
#: (size, ways, line): 1 to 16 sets, L1 lines of 32 B under a 64 B L2 line.
l1_geometries = st.sampled_from(
    [(256, 1, 64), (512, 2, 64), (256, 4, 64), (256, 1, 32), (512, 2, 32), (1024, 4, 32)]
)
l2_geometries = st.sampled_from([(1024, 1, 64), (2048, 2, 64), (4096, 4, 64), (512, 8, 64)])


@given(
    st.dictionaries(region_names, region_spans, min_size=1, max_size=6),
    l1_geometries,
    l1_geometries,
    l2_geometries,
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_prewarm_matches_touch_loop_on_small_machines(regions, l1i, l1d, l2):
    def make_hierarchy():
        return SimpleNamespace(
            l1i=SetAssociativeCache(CacheGeometry("l1i", l1i[0], l1i[1], line_bytes=l1i[2])),
            l1d=SetAssociativeCache(CacheGeometry("l1d", l1d[0], l1d[1], line_bytes=l1d[2])),
            l2=SetAssociativeCache(CacheGeometry("l2", l2[0], l2[1], line_bytes=l2[2])),
        )

    _assert_prewarm_matches_loop(make_hierarchy, regions)


def test_install_touched_refuses_a_warm_cache():
    cache = SetAssociativeCache(CacheGeometry("c", 1024, 2, line_bytes=64))
    cache.fill(0x40)
    with pytest.raises(SimulationError):
        cache.install_touched([range(0, 256, 64)])


# ---------------------------------------------------------------------------
# MSHR invariants.
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),  # line index
            st.integers(min_value=1, max_value=500),  # fill delay
        ),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=50, deadline=None)
def test_mshr_never_overflows(requests):
    mshr = MshrFile(4)
    cycle = 0
    for line_index, delay in requests:
        cycle += 1
        line = line_index * 64
        if mshr.outstanding(line, cycle) is not None:
            continue
        if mshr.can_allocate(cycle):
            mshr.allocate(line, cycle + delay, cycle)
        assert len(mshr) <= 4


# ---------------------------------------------------------------------------
# Bus invariants.
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10),  # inter-arrival gap
            st.integers(min_value=1, max_value=256),  # payload bytes
        ),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=50, deadline=None)
def test_bus_transfers_never_overlap(requests):
    bus = Bus(BusParams("b", latency=5, bytes_per_cycle=16))
    cycle = 0
    previous_start = -1
    previous_busy = 0
    for gap, payload in requests:
        cycle += gap
        timing = bus.transfer(cycle, payload)
        assert timing.start >= cycle
        assert timing.start >= previous_busy  # no overlap with prior transfer
        assert timing.done >= timing.start
        previous_busy = timing.start + bus.params.occupancy(payload)
        previous_start = timing.start


# ---------------------------------------------------------------------------
# BHT: misprediction ratio bounded, training converges.
# ---------------------------------------------------------------------------


@given(st.lists(st.booleans(), min_size=8, max_size=200), st.integers(0, 1 << 30))
@settings(max_examples=50, deadline=None)
def test_bht_statistics_bounded(outcomes, pc_seed):
    table = BranchHistoryTable(BhtParams("t", entries=64, ways=2, access_latency=1))
    pc = (pc_seed & ~0x3) or 4
    for taken in outcomes:
        predicted = table.predict(pc)
        table.update(pc, taken, predicted)
    assert table.stats.conditional_branches == len(outcomes)
    assert 0.0 <= table.stats.misprediction_ratio <= 1.0


@given(st.integers(1, 1 << 30))
@settings(max_examples=30, deadline=None)
def test_bht_constant_branch_converges(pc_seed):
    table = BranchHistoryTable(BhtParams("t", entries=64, ways=2, access_latency=1))
    pc = (pc_seed & ~0x3) or 4
    for _ in range(10):
        table.update(pc, True, table.predict(pc))
    assert table.predict(pc) is True


def _valid_flag_bht(params, branches):
    """Oracle: (predictions, [branches, mispredictions, taken_misses]) of
    a table that pre-allocates ``ways`` entries per set with valid flags
    and fills the first invalid way before evicting the LRU one."""
    sets = [[[False, -1, 0, 0] for _ in range(params.ways)]
            for _ in range(params.entries // params.ways)]
    clock, stats, predictions = 0, [0, 0, 0], []
    for pc, taken in branches:
        bucket = sets[(pc >> 2) % len(sets)]
        entry = next((e for e in bucket if e[0] and e[1] == pc >> 2), None)
        predicted = entry is not None and entry[2] >= 2
        predictions.append(predicted)
        clock += 1
        stats[0] += 1
        stats[1] += taken != predicted
        if entry is not None:
            entry[2] = min(3, entry[2] + 1) if taken else max(0, entry[2] - 1)
            entry[3] = clock
        elif taken:
            stats[2] += 1
            free = [e for e in bucket if not e[0]]
            victim = free[0] if free else min(bucket, key=lambda e: e[3])
            victim[:] = [True, pc >> 2, 2, clock]
    return predictions, stats


@given(
    st.lists(st.tuples(st.integers(0, 63), st.booleans()), min_size=1, max_size=300),
    st.sampled_from([(16, 1), (16, 2), (32, 4), (8, 8)]),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_bht_matches_valid_flag_oracle(branches, geometry):
    """Sets that grow to ``ways`` predict and count exactly like the
    pre-allocated valid-flag table."""
    entries, ways = geometry
    params = BhtParams("t", entries=entries, ways=ways, access_latency=1)
    branches = [(0x1000 + 4 * slot, taken) for slot, taken in branches]
    table = BranchHistoryTable(params)
    predictions = []
    for pc, taken in branches:
        predictions.append(table.predict(pc))
        table.update(pc, taken, predictions[-1])
    stats = table.stats
    assert (predictions, [stats.conditional_branches, stats.mispredictions,
                          stats.taken_misses]) == _valid_flag_bht(params, branches)


# ---------------------------------------------------------------------------
# Trace I/O round trip.
# ---------------------------------------------------------------------------

record_strategy = st.builds(
    TraceRecord,
    pc=st.integers(min_value=0, max_value=(1 << 47) - 1).map(lambda v: v & ~0x3),
    op=st.sampled_from([OpClass.INT_ALU, OpClass.LOAD, OpClass.STORE, OpClass.NOP]),
    dest=st.integers(min_value=-1, max_value=65),
    srcs=st.lists(st.integers(min_value=0, max_value=65), max_size=3).map(tuple),
    ea=st.integers(min_value=-1, max_value=(1 << 47) - 1),
    size=st.sampled_from([0, 4, 8]),
    privileged=st.booleans(),
)


@given(
    st.lists(record_strategy, max_size=50),
    st.booleans(),
    st.integers(min_value=0),
    st.integers(min_value=1, max_value=255),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_trace_io_roundtrip(tmp_path_factory, records, truncate, position, mask):
    trace = Trace(records, name="prop", cpu=1)
    path = tmp_path_factory.mktemp("io") / "t.trc"
    write_trace(trace, path)
    assert read_trace(path).records == trace.records
    # Damage: a random truncation point or one flipped byte must raise
    # TraceError, never struct.error or any other exception.
    data = bytearray(path.read_bytes())
    position %= len(data)
    if truncate:
        del data[position:]
    else:
        data[position] ^= mask
    path.write_bytes(bytes(data))
    with pytest.raises(TraceError):
        read_trace(path)


# ---------------------------------------------------------------------------
# Synthetic traces: control-flow consistency for arbitrary seeds.
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_generated_traces_always_consistent(seed):
    from repro.trace.synth import generate_trace, standard_profiles

    trace = generate_trace(standard_profiles()["SPECint95"], 1500, seed=seed)
    trace.validate()
    assert len(trace) == 1500


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None)
def test_rng_geometric_always_positive(seed):
    rng = DeterministicRng(seed)
    assert all(rng.geometric(5.0) >= 1 for _ in range(100))
