"""Unit and behaviour tests for the out-of-order pipeline engine."""

import pytest

from repro.core.pipeline import ProcessorCore
from repro.core.params import RsOrganization
from repro.frontend.bht import BranchHistoryTable
from repro.isa.opcodes import OpClass
from repro.model.simulator import build_cpu, build_hierarchy, warm_structures
from repro.trace.record import TraceRecord, make_branch
from repro.trace.stream import Trace


def run_core(records, config, warm=True, max_cycles=500_000):
    hierarchy = build_hierarchy(config)
    trace = Trace(records, name="t")
    bht = BranchHistoryTable(config.bht)
    core = ProcessorCore(trace, hierarchy, config.core, config.frontend, bht)
    if warm:
        warm_structures(hierarchy, core.fetch.bht, trace)
    stats = core.run(max_cycles=max_cycles)
    return stats, core, hierarchy


def alu_block(count, base=0x1000, dest_cycle=8):
    return [
        TraceRecord(base + 4 * i, OpClass.INT_ALU, dest=8 + (i % dest_cycle), srcs=(1,))
        for i in range(count)
    ]


class TestThroughput:
    def test_independent_alu_bounded_by_dispatch(self, table1_config):
        """Two integer units, one dispatch each per cycle: IPC -> 2."""
        records = []
        for _ in range(30):
            records.extend(alu_block(255))
            records.append(
                make_branch(0x1000 + 4 * 255, taken=True, target=0x1000,
                            conditional=False)
            )
        stats, _, _ = run_core(records, table1_config)
        assert 1.6 < stats.ipc <= 2.05

    def test_dependent_chain_ipc_one(self, table1_config):
        """A serial dependence chain with forwarding commits ~1 per cycle."""
        records = []
        for _ in range(20):
            records.extend(
                TraceRecord(0x1000 + 4 * i, OpClass.INT_ALU, dest=8, srcs=(8,))
                for i in range(255)
            )
            records.append(
                make_branch(0x1000 + 4 * 255, taken=True, target=0x1000,
                            conditional=False)
            )
        stats, _, _ = run_core(records, table1_config)
        assert 0.8 < stats.ipc <= 1.1

    def test_no_forwarding_slows_chain(self, table1_config):
        records = []
        for _ in range(10):
            records.extend(
                TraceRecord(0x1000 + 4 * i, OpClass.INT_ALU, dest=8, srcs=(8,))
                for i in range(255)
            )
            records.append(
                make_branch(0x1000 + 4 * 255, taken=True, target=0x1000,
                            conditional=False)
            )
        fast, _, _ = run_core(records, table1_config)
        slow_config = table1_config.derived(
            "no-fwd", core=table1_config.core.derived(data_forwarding=False)
        )
        slow, _, _ = run_core(records, slow_config)
        assert slow.ipc < fast.ipc

    def test_fp_uses_fp_units(self, table1_config):
        records = []
        for _ in range(10):
            records.extend(
                TraceRecord(0x1000 + 4 * i, OpClass.FP_FMA, dest=40 + (i % 8),
                            srcs=(33, 34))
                for i in range(255)
            )
            records.append(
                make_branch(0x1000 + 4 * 255, taken=True, target=0x1000,
                            conditional=False)
            )
        stats, _, _ = run_core(records, table1_config)
        assert stats.ipc > 1.2  # two pipelined FMA units


class TestLoadBehaviour:
    def _load_chain(self, ea_of, count=300):
        records = []
        pc = 0x1000
        for i in range(count):
            records.append(
                TraceRecord(pc, OpClass.LOAD, dest=8, srcs=(1,), ea=ea_of(i), size=8)
            )
            pc += 4
            records.append(TraceRecord(pc, OpClass.INT_ALU, dest=9, srcs=(8,)))
            pc += 4
        return records

    def test_speculative_dispatch_replays_on_miss(self, table1_config):
        records = self._load_chain(lambda i: 0x100000 + i * 8192)
        stats, _, _ = run_core(records, table1_config, warm=False)
        assert stats.replays > 0

    def test_hits_cause_no_replays(self, table1_config):
        records = self._load_chain(lambda i: 0x100000 + (i % 8) * 8)
        stats, _, _ = run_core(records, table1_config)
        assert stats.replays == 0
        levels = stats.load_level_counts
        assert levels.get("l1", 0) > 250

    def test_speculative_dispatch_off_no_replays(self, table1_config):
        config = table1_config.derived(
            "no-spec", core=table1_config.core.derived(speculative_dispatch=False)
        )
        records = self._load_chain(lambda i: 0x100000 + i * 8192)
        stats, _, _ = run_core(records, config, warm=False)
        assert stats.replays == 0

    def test_speculative_dispatch_helps_hits(self, table1_config):
        records = self._load_chain(lambda i: 0x100000 + (i % 8) * 8)
        fast, _, _ = run_core(records, table1_config)
        config = table1_config.derived(
            "no-spec", core=table1_config.core.derived(speculative_dispatch=False)
        )
        slow, _, _ = run_core(records, config)
        assert fast.cycles < slow.cycles

    def test_store_to_load_forwarding(self, table1_config):
        records = []
        pc = 0x1000
        for i in range(100):
            ea = 0x200000 + (i % 4) * 64
            records.append(
                TraceRecord(pc, OpClass.STORE, srcs=(1, 9), ea=ea, size=8)
            )
            pc += 4
            records.append(
                TraceRecord(pc, OpClass.LOAD, dest=8, srcs=(1,), ea=ea, size=8)
            )
            pc += 4
        stats, _, _ = run_core(records, table1_config)
        assert stats.store_forwards > 0

    def test_bank_conflicts_counted(self, table1_config):
        # Pairs of independent loads to the same bank (same addr mod 32).
        records = []
        pc = 0x1000
        for i in range(200):
            records.append(
                TraceRecord(pc, OpClass.LOAD, dest=8, srcs=(1,),
                            ea=0x100000 + (i % 4) * 32, size=8)
            )
            pc += 4
            records.append(
                TraceRecord(pc, OpClass.LOAD, dest=9, srcs=(2,),
                            ea=0x140000 + (i % 4) * 32, size=8)
            )
            pc += 4
        stats, _, _ = run_core(records, table1_config)
        assert stats.bank_conflicts > 0


class TestBranches:
    def test_mispredicted_branch_costs_cycles(self, table1_config):
        """Alternating directions thrash one BHT entry; misses cost cycles."""

        def stream(directions):
            records = []
            base = 0x1000
            for taken in directions:
                records.extend(alu_block(10, base=base))
                # Same branch PC every block: one shared BHT entry, so an
                # alternating direction pattern defeats the counter while
                # a constant one trains it.
                records.append(
                    make_branch(0x90000, taken=taken, target=base + 0x100)
                )
                base += 0x100
            return records

        alternating = stream([index % 2 == 0 for index in range(40)])
        predictable = stream([False] * 40)
        slow, _, _ = run_core(alternating, table1_config)
        fast, _, _ = run_core(predictable, table1_config)
        assert slow.branch_mispredictions > fast.branch_mispredictions
        assert slow.branch_mispredictions > 0
        assert slow.cycles > fast.cycles

    def test_branch_stats_populated(self, table1_config):
        records = []
        for _ in range(20):
            records.extend(alu_block(62))
            records.append(
                TraceRecord(0x1000 + 4 * 62, OpClass.INT_ALU, dest=64, srcs=(8, 9))
            )
            records.append(
                make_branch(0x1000 + 4 * 63, taken=True, target=0x1000, srcs=(64,))
            )
        stats, _, _ = run_core(records, table1_config)
        assert stats.conditional_branches == 20
        assert stats.branches == 20


class TestOrganisation:
    def test_one_rs_at_least_as_fast(self, table1_config):
        """1RS dispatches flexibly; the paper found 2RS slightly slower."""
        records = []
        for _ in range(20):
            records.extend(alu_block(255))
            records.append(
                make_branch(0x1000 + 4 * 255, taken=True, target=0x1000,
                            conditional=False)
            )
        two_rs, _, _ = run_core(records, table1_config)
        one_rs_config = table1_config.derived(
            "1rs",
            core=table1_config.core.derived(rs_organization=RsOrganization.ONE_RS),
        )
        one_rs, _, _ = run_core(records, one_rs_config)
        assert one_rs.cycles <= two_rs.cycles

    def test_issue_width_two_caps_ipc(self, table1_config):
        records = []
        for _ in range(20):
            records.extend(alu_block(255))
            records.append(
                make_branch(0x1000 + 4 * 255, taken=True, target=0x1000,
                            conditional=False)
            )
        config = table1_config.derived(
            "2w", core=table1_config.core.derived(issue_width=2, commit_width=2)
        )
        stats, _, _ = run_core(records, config)
        assert stats.ipc <= 2.01


class TestTermination:
    def test_all_instructions_commit(self, table1_config, alu_loop_trace):
        stats, _, _ = run_core(list(alu_loop_trace.records), table1_config)
        assert stats.instructions == len(alu_loop_trace)

    def test_max_cycles_guard(self, table1_config):
        from repro.common.errors import SimulationError

        records = alu_block(100)
        with pytest.raises(SimulationError):
            run_core(records, table1_config, warm=False, max_cycles=3)

    def test_determinism(self, table1_config, alu_loop_trace):
        a, _, _ = run_core(list(alu_loop_trace.records), table1_config)
        b, _, _ = run_core(list(alu_loop_trace.records), table1_config)
        assert a.cycles == b.cycles


class TestIdleSkipAhead:
    """Wake-time correctness of the idle-cycle jump under DRAM misses.

    ``run()`` skips idle spans via ``_next_cycle``; that is only sound if
    the jump never lands *past* a cycle where the pipeline would report
    activity.  These tests drive a trace of cold DRAM-missing loads,
    probe every multi-cycle jump with a deep-copied core stepped one
    cycle at a time (each intermediate cycle must be idle), and
    cross-check the two wake caches — the LSU pending-work minimum and
    the dispatch-tail station-wake note — against from-scratch
    recomputation at every idle cycle.
    """

    @staticmethod
    def _dram_miss_records(count=32, stride=1 << 20):
        """Widely-strided loads (cold DRAM misses) with dependent ALU ops."""
        records = []
        for i in range(count):
            pc = 0x1000 + 8 * i
            records.append(
                TraceRecord(pc, OpClass.LOAD, dest=8, srcs=(1,),
                            ea=0x40_0000 + i * stride, size=8)
            )
            records.append(
                TraceRecord(pc + 4, OpClass.INT_ALU, dest=9, srcs=(8,))
            )
        return records

    def _fresh_core(self, config, records):
        hierarchy = build_hierarchy(config)
        trace = Trace(list(records), name="dram")
        return ProcessorCore(
            trace, hierarchy, config.core, config.frontend, BranchHistoryTable(config.bht)
        )

    def test_jumps_never_overshoot_activity(self, table1_config):
        import copy
        import dataclasses

        records = self._dram_miss_records()
        core = self._fresh_core(table1_config, records)
        cycle = 0
        max_jump = 0
        while not core.finished:
            assert cycle < 200_000, "driver runaway"
            if core.step_cycle(cycle):
                cycle += 1
                continue

            # Wake-cache cross-checks at every idle cycle.
            lsu = core.lsu
            cached = lsu.pending_work_cycle(cycle)
            lsu._pending_dirty = True  # force a queue re-walk
            assert lsu.pending_work_cycle(cycle) == cached, (
                "stale LSU pending-work cache at an idle cycle"
            )
            notes = [
                station.next_eligible
                for station in core._all_stations
                if station.next_eligible is not None
                and station.next_eligible > cycle
            ]
            assert core._station_wake == (min(notes) if notes else None), (
                "dispatch-tail station wake disagrees with a full walk"
            )

            target = core._next_cycle(cycle)
            assert target > cycle
            if target > cycle + 1:
                # Gold standard: stepping a cloned core through every
                # skipped cycle must find nothing to do.
                probe = copy.deepcopy(core)
                for skipped in range(cycle + 1, target):
                    assert not probe.step_cycle(skipped), (
                        f"jump to {target} overshot activity at {skipped}"
                    )
            max_jump = max(max_jump, target - cycle)
            cycle = target
        manual = dataclasses.asdict(core.finalize_stats(cycle))

        # The manual driver above is run()\'s loop; run() must agree.
        reference = self._fresh_core(table1_config, records)
        reference.run(max_cycles=200_000)
        assert dataclasses.asdict(reference.stats) == manual

        # A cold load miss serviced by DRAM (260-cycle latency) must be
        # covered by large jumps, not limped through cycle by cycle.
        assert max_jump > 50


class TestMeasuredRunMatchesRun:
    """``run_measured(0, n)`` over a whole timed trace is ``run()``.

    Both drive the one stepping loop and read the same counter snapshot,
    so measuring every commit must reproduce the full run's statistics
    field for field (CPI stack included).
    """

    @staticmethod
    def _warmed_core(config, trace):
        hierarchy, bht, timed = build_cpu(config, trace, warmup_fraction=0.5)
        core = ProcessorCore(timed, hierarchy, config.core, config.frontend, bht)
        return core, len(timed)

    @pytest.mark.parametrize(
        "workload", ["SPECint95", "SPECfp95", "SPECint2000", "SPECfp2000", "TPC-C"]
    )
    def test_measuring_every_commit_equals_run(self, table1_config, workload):
        import dataclasses

        from repro.core.pipeline import CoreStats
        from repro.trace.synth import generate_trace, standard_profiles

        trace = generate_trace(standard_profiles()[workload], 3000, seed=7)
        stats = self._warmed_core(table1_config, trace)[0].run()
        core, timed = self._warmed_core(table1_config, trace)
        measured = core.run_measured(0, timed)
        for stat in dataclasses.fields(CoreStats):
            assert measured[stat.name] == getattr(stats, stat.name), stat.name
