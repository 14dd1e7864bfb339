"""Tests for parameter sweeps and workload characterisation."""

import pytest

from repro.analysis.characterize import characterize_trace, characterize_workload
from repro.analysis.runner import ExperimentRunner
from repro.analysis.sweeps import (
    bht_size_sweep,
    l2_size_sweep,
    smp_scaling_sweep,
    window_size_sweep,
)
from repro.analysis.workloads import workload_by_name


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


@pytest.fixture(scope="module")
def small_tpcc():
    return workload_by_name("TPC-C", warm=20_000, timed=6_000)


@pytest.fixture(scope="module")
def small_int():
    return workload_by_name("SPECint95", warm=15_000, timed=6_000)


class TestSweeps:
    def test_l2_sweep_monotone_miss(self, runner, small_tpcc):
        result = l2_size_sweep((1, 4), workload=small_tpcc, runner=runner)
        misses = result.series["L2 miss ratio"]
        # Bigger L2 never misses more.
        assert misses[-1] <= misses[0] + 1e-9
        assert "L2 capacity" in result.format_table()

    def test_window_sweep_monotone_ipc(self, runner, small_int):
        result = window_size_sweep((16, 64), workload=small_int, runner=runner)
        ipcs = result.series["IPC"]
        assert ipcs[-1] >= ipcs[0] - 0.02  # deeper window never materially hurts

    def test_bht_sweep_monotone(self, runner, small_tpcc):
        result = bht_size_sweep((1024, 16384), workload=small_tpcc, runner=runner)
        rates = result.series["mispredict ratio"]
        assert rates[-1] <= rates[0] + 1e-9

    def test_smp_scaling(self, runner):
        result = smp_scaling_sweep((1, 2), runner=runner, warm=4000, timed=2000)
        assert len(result.series["system IPC"]) == 2
        # System throughput grows with a second processor; per-CPU IPC does not.
        assert result.series["system IPC"][1] > result.series["system IPC"][0]
        per_cpu = result.series["per-CPU IPC"]
        assert per_cpu[-1] <= per_cpu[0] * 1.1

    def test_format_table(self, runner, small_int):
        result = window_size_sweep((16,), workload=small_int, runner=runner)
        text = result.format_table()
        assert "window" in text and "IPC" in text


class TestCharacterize:
    def test_trace_only(self, small_int):
        report = characterize_trace(small_int.trace())
        text = report.format_report()
        assert "instructions" in text
        assert "IPC" not in text  # no simulation requested

    def test_with_simulation(self, small_int):
        report = characterize_workload(small_int)
        text = report.format_report()
        assert "IPC" in text
        assert "L1D miss" in text

    def test_with_breakdown(self):
        workload = workload_by_name("SPECint95", warm=8000, timed=4000)
        report = characterize_workload(workload, with_breakdown=True)
        text = report.format_report()
        assert "time: core" in text
        report.breakdown.validate()
