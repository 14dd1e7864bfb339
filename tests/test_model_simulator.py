"""Integration tests for the assembled performance model."""

from dataclasses import replace

import pytest

from repro.analysis import Workload, fig07_characteristics
from repro.common.errors import ConfigError
from repro.model.config import base_config
from repro.model.simulator import PerformanceModel
from repro.trace.stream import Trace
from repro.trace.synth import TraceGenerator, standard_profiles


@pytest.fixture(scope="module")
def int95_run():
    profile = standard_profiles()["SPECint95"]
    generator = TraceGenerator(profile, seed=11)
    trace = generator.generate(30_000)
    result = PerformanceModel(base_config()).run(
        trace, warmup_fraction=0.5, regions=generator.memory_regions()
    )
    return result


class TestRun:
    def test_all_instructions_commit(self, int95_run):
        assert int95_run.instructions == 15_000

    def test_plausible_ipc(self, int95_run):
        assert 0.3 < int95_run.ipc < 4.0

    def test_stats_populated(self, int95_run):
        assert int95_run.l1d["demand_accesses"] > 0
        assert 0.0 <= int95_run.miss_ratio("l1d") < 1.0
        assert int95_run.sim_speed > 0

    def test_summary_renders(self, int95_run):
        text = int95_run.summary()
        assert "ipc" in text

    def test_as_dict(self, int95_run):
        data = int95_run.as_dict()
        assert data["instructions"] == 15_000

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigError):
            PerformanceModel(base_config()).run(Trace([]))

    def test_bad_warmup_fraction(self):
        trace = Trace([__import__("repro.trace.record", fromlist=["make_alu"]).make_alu(0x1000, 8, ())])
        with pytest.raises(ConfigError):
            PerformanceModel(base_config()).run(trace, warmup_fraction=1.0)

    def test_deterministic(self):
        profile = standard_profiles()["SPECint95"]
        generator_a = TraceGenerator(profile, seed=3)
        trace_a = generator_a.generate(5000)
        generator_b = TraceGenerator(profile, seed=3)
        trace_b = generator_b.generate(5000)
        run_a = PerformanceModel(base_config()).run(
            trace_a, 0.4, regions=generator_a.memory_regions()
        )
        run_b = PerformanceModel(base_config()).run(
            trace_b, 0.4, regions=generator_b.memory_regions()
        )
        assert run_a.cycles == run_b.cycles


class TestPerfectStructures:
    @pytest.fixture(scope="class")
    def breakdown(self):
        workload = Workload(
            "SPECint95", standard_profiles()["SPECint95"], seed=11,
            warm_instructions=10_000, timed_instructions=10_000,
        )
        [breakdown] = fig07_characteristics([workload]).breakdowns
        return breakdown

    def test_sums_to_one(self, breakdown):
        total = breakdown.core + breakdown.branch + breakdown.ibs_tlb + breakdown.sx
        assert total == pytest.approx(1.0)

    def test_all_components_non_negative(self, breakdown):
        assert breakdown.core >= 0
        assert breakdown.branch >= 0
        assert breakdown.ibs_tlb >= 0
        assert breakdown.sx >= 0

    def test_core_dominates_for_specint(self, breakdown):
        assert breakdown.core > 0.35

    def test_as_dict(self, breakdown):
        data = breakdown.as_dict()
        assert set(data) == {"core", "branch", "ibs/tlb", "sx"}

    def test_perfect_model_is_faster(self):
        profile = standard_profiles()["SPECint95"]
        generator = TraceGenerator(profile, seed=13)
        trace = generator.generate(8000)
        regions = generator.memory_regions()
        base = PerformanceModel(base_config()).run(trace, 0.5, regions=regions)
        perfect = PerformanceModel(
            base_config().derived(
                "perfect",
                perfect_l1=True,
                perfect_l2=True,
                perfect_tlb=True,
                frontend=replace(base_config().frontend, perfect_prediction=True),
            )
        ).run(trace, 0.5, regions=regions)
        assert perfect.cycles <= base.cycles
