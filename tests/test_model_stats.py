"""Unit tests for SimResult aggregation helpers."""

import pytest

from repro.core.pipeline import CoreStats
from repro.model.stats import SampledSimResult, SimResult, ipc_ratio


def make_result(cycles=100, instructions=100, **kwargs):
    return SimResult(
        config_name="cfg",
        trace_name="trace",
        core=CoreStats(cycles=cycles, instructions=instructions),
        **kwargs,
    )


class TestSimResult:
    def test_ipc(self):
        assert make_result(cycles=200, instructions=100).ipc == pytest.approx(0.5)

    def test_miss_ratio_lookup(self):
        result = make_result(
            l1d={"demand_miss_ratio": 0.25, "total_miss_ratio": 0.5}
        )
        assert result.miss_ratio("l1d") == 0.25
        assert result.miss_ratio("l1d", demand_only=False) == 0.5

    def test_miss_ratio_missing_key(self):
        assert make_result().miss_ratio("l2") == 0.0

    def test_as_dict_keys(self):
        data = make_result().as_dict()
        for key in ("config", "trace", "ipc", "l1d_miss_ratio", "replays"):
            assert key in data

    def test_summary_contains_all(self):
        text = make_result().summary()
        assert "config" in text and "ipc" in text


class TestIpcRatio:
    def test_ratio(self):
        fast = make_result(cycles=100, instructions=200)  # ipc 2
        slow = make_result(cycles=200, instructions=200)  # ipc 1
        assert ipc_ratio(fast, slow) == pytest.approx(2.0)

    def test_zero_baseline(self):
        fast = make_result()
        zero = make_result(cycles=0, instructions=0)
        assert ipc_ratio(fast, zero) == 0.0


class TestFromCounts:
    def test_zero_counters_give_zero_ratios(self, zero_snapshot):
        result = SimResult.from_counts("cfg", "trace", zero_snapshot)
        assert result.ipc == 0.0
        assert result.itlb_miss_ratio == result.dtlb_miss_ratio == 0.0
        assert result.system_bus_utilization == result.l1_l2_bus_utilization == 0.0
        assert result.bht_misprediction_ratio == 0.0
        assert result.l1d["demand_miss_ratio"] == 0.0

    def test_ratios_over_counters(self, zero_snapshot):
        counts = dict(
            zero_snapshot,
            cycles=100,
            instructions=50,
            dtlb={"accesses": 8, "misses": 2},
            system_bus_busy=250,  # more busy cycles than cycles: capped
            l1_l2_bus_busy=25,
            branch_mispredictions=3,
            conditional_branches=12,
        )
        counts["l2"]["demand_accesses"] = 10
        counts["l2"]["demand_misses"] = 4
        result = SimResult.from_counts("cfg", "trace", counts, warmup_instructions=7)
        assert result.ipc == pytest.approx(0.5)
        assert result.dtlb_miss_ratio == pytest.approx(0.25)
        assert result.system_bus_utilization == 1.0
        assert result.l1_l2_bus_utilization == pytest.approx(0.25)
        assert result.bht_misprediction_ratio == pytest.approx(0.25)
        assert result.miss_ratio("l2") == pytest.approx(0.4)
        assert result.warmup_instructions == 7

    def test_sampled_flavour(self, zero_snapshot):
        result = SampledSimResult.from_counts(
            "cfg", "trace", zero_snapshot, window_cycles=[1, 2]
        )
        assert isinstance(result, SampledSimResult)
        assert result.window_count == 2
