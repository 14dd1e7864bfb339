"""Tests for the experiment harness (small-scale figure runs)."""

import os
import subprocess
import sys

import pytest

from repro.analysis import (
    ExperimentRunner,
    ParallelRunner,
    fig_cpistack,
    fig07_characteristics,
    fig08_issue_width,
    fig09_10_bht,
    fig11_12_13_l1,
    fig14_15_l2,
    fig16_17_prefetch,
    fig18_reservation,
    fig19_accuracy,
    smp_workload,
    spec_workloads,
    standard_workloads,
    tpcc_workload,
    workload_by_name,
)
from repro.analysis.policy import RunPolicy
from repro.analysis.report import format_table, percent
from repro.common import faults
from repro.common.errors import ConfigError
from repro.model.config import base_config


class TestWorkloads:
    def test_standard_set(self):
        names = [workload.name for workload in standard_workloads()]
        assert names == [
            "SPECint95",
            "SPECfp95",
            "SPECint2000",
            "SPECfp2000",
            "TPC-C",
        ]

    def test_trace_cached(self):
        workload = workload_by_name("SPECint95", warm=500, timed=500)
        assert workload.trace() is workload.trace()

    def test_warmup_fraction(self):
        workload = workload_by_name("SPECint95", warm=900, timed=100)
        assert workload.warmup_fraction == pytest.approx(0.9)

    def test_unknown_workload(self):
        with pytest.raises(ConfigError):
            workload_by_name("SPECjbb")

    def test_smp_workload_name(self):
        assert smp_workload(16).name == "TPC-C (16P)"

    def test_smp_traces_and_regions(self):
        workload = smp_workload(2, warm=300, timed=200)
        traces, regions = workload.smp_traces(2)
        assert len(traces) == len(regions) == 2
        assert all(len(trace) == 500 for trace in traces)


class TestRunnerCaching:
    def test_results_cached(self):
        runner = ExperimentRunner()
        workload = workload_by_name("SPECint95", warm=2000, timed=1000)
        first = runner.run(base_config(), workload)
        second = runner.run(base_config(), workload)
        assert first is second

    def test_cached_results_listing(self):
        runner = ExperimentRunner()
        workload = workload_by_name("SPECint95", warm=2000, timed=1000)
        runner.run(base_config(), workload)
        assert len(runner.cached_results()) == 1


@pytest.fixture(scope="module")
def mini_workloads():
    """Two small workloads so the figure functions run in seconds."""
    return [
        workload_by_name("SPECint95", warm=8000, timed=4000),
        workload_by_name("SPECfp95", warm=8000, timed=4000),
    ]


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


class TestFigureFunctions:
    def test_fig08(self, mini_workloads, runner):
        result = fig08_issue_width(mini_workloads, runner)
        assert set(result.ratios) == {"SPECint95", "SPECfp95"}
        # 4-way issue can never be slower than 2-way in this model.
        assert all(ratio >= 0.99 for ratio in result.ratios.values())
        assert "Figure 8" in result.format_table()

    def test_fig09_10(self, mini_workloads, runner):
        result = fig09_10_bht(mini_workloads, runner)
        for name in ("SPECint95", "SPECfp95"):
            assert 0.0 <= result.mispredict_16k[name] <= 1.0
            assert 0.0 <= result.mispredict_4k[name] <= 1.0
        assert "BHT" in result.format_table()

    def test_fig16_17(self, mini_workloads, runner):
        result = fig16_17_prefetch(mini_workloads, runner)
        # Prefetching must cut the demand miss ratio for the FP workload.
        assert (
            result.miss_with_demand["SPECfp95"]
            <= result.miss_without["SPECfp95"] + 1e-9
        )
        assert "prefetch" in result.format_table().lower()

    def test_fig18(self, mini_workloads, runner):
        result = fig18_reservation(mini_workloads, runner)
        # 1RS and 2RS differ by a few percent at most.
        for ratio in result.ratios.values():
            assert 0.9 < ratio < 1.1

    def test_import_leaves_verify_unloaded(self):
        # Figure 19 imports repro.verify (reverse tracer, ISA executor) on
        # use; importing the analysis layer, as every command does, must not.
        import repro

        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))}
        script = "import sys, repro.analysis; sys.exit('repro.verify' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", script], env=env, timeout=60)
        assert proc.returncode == 0


def _fig14_with_2p(workloads, runner):
    smp = smp_workload(2, warm=2000, timed=800)
    return fig14_15_l2(workloads, runner, smp_cpus=2, smp_workload_override=smp)


def _fig19_spec2000(workloads, runner):
    spec2000 = [
        workload_by_name(name, warm=2000, timed=800)
        for name in ("SPECint2000", "SPECfp2000")
    ]
    return fig19_accuracy(spec2000, runner)


class TestPartialFigures:
    """Under ``on_failure="skip"`` an abandoned point renders ``n/a`` and a
    ``partial:`` footnote in every figure instead of raising."""

    @pytest.mark.parametrize(
        "figure, match, missing, intact",
        [
            (fig07_characteristics, "SPECfp95@SPARC64-V+perfectL2", "SPECfp95", "SPECint95"),
            (fig_cpistack, "SPECfp95@SPARC64-V", "SPECfp95", "SPECint95"),
            (fig09_10_bht, "SPECfp95@bht-4k", "SPECfp95", "SPECint95"),
            (fig11_12_13_l1, "SPECfp95@l1-32k", "SPECfp95", "SPECint95"),
            (_fig14_with_2p, "x2P@l2-off.8m-1w", "TPC-C (2P)", "SPECint95"),
            (fig16_17_prefetch, "SPECfp95@no-prefetch", "SPECfp95", "SPECint95"),
            (_fig19_spec2000, "SPECfp2000@v8", "SPECfp2000", "SPECint2000"),
        ],
        ids=[
            "fig07", "cpistack", "fig09_10", "fig11_12_13", "fig14_15", "fig16_17",
            "fig19",
        ],
    )
    def test_abandoned_point_renders_partial_table(
        self, figure, match, missing, intact, tmp_path
    ):
        workloads = [
            workload_by_name(name, warm=2000, timed=800)
            for name in ("SPECint95", "SPECfp95")
        ]
        faults.install_spec(f"worker-raise,times=5,match={match}")
        runner = ParallelRunner(
            jobs=2,
            cache_dir=str(tmp_path),
            policy=RunPolicy(
                retries=0, on_failure="skip", backoff_base=0.01, backoff_max=0.05
            ),
        )
        try:
            table = figure(workloads, runner=runner).format_table()
        finally:
            faults.install_spec(None)
            faults.reset()
            runner.close()
        assert len(runner.stats.skipped) == 1
        assert f"partial: 1 workload(s) skipped after repeated failures ({missing})" in table
        rows = [line for line in table.splitlines() if line.startswith(missing)]
        assert rows and all("n/a" in row for row in rows)
        assert not any(
            "n/a" in line for line in table.splitlines() if line.startswith(intact)
        )


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["x", 1], ["yy", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_percent(self):
        assert percent(0.356) == "35.6%"
        assert percent(0.5, 0) == "50%"
