"""Fast tests for the accuracy-tracking machinery (small traces)."""

import pytest

from repro.analysis import ExperimentRunner, workload_by_name
from repro.verify.accuracy import (
    MACHINE_SEED_OFFSET,
    AccuracyPoint,
    accuracy_history,
    machine_workload,
    version_estimate_history,
)


class TestAccuracyPoint:
    def test_error_sign(self):
        fast_model = AccuracyPoint("p", "w", model_cycles=90, machine_cycles=100)
        assert fast_model.error == pytest.approx(-0.10)
        assert fast_model.abs_error == pytest.approx(0.10)

    def test_zero_machine(self):
        point = AccuracyPoint("p", "w", model_cycles=10, machine_cycles=0)
        assert point.error == 0.0


class TestHistories:
    @pytest.fixture(scope="class")
    def runner(self):
        return ExperimentRunner()

    @pytest.fixture(scope="class")
    def workloads(self):
        return [workload_by_name("SPECint2000", warm=12000, timed=4000)]

    @pytest.fixture(scope="class")
    def upper(self, workloads, runner):
        return version_estimate_history(workloads, runner)

    def test_upper_has_all_versions(self, upper):
        assert list(upper["SPECint2000"]) == [f"v{i}" for i in range(1, 9)]

    def test_upper_v8_normalised(self, upper):
        assert upper["SPECint2000"]["v8"] == pytest.approx(1.0)

    def test_upper_v1_not_pessimistic(self, upper):
        # The latency-only model can only over-estimate performance.
        assert upper["SPECint2000"]["v1"] >= 0.99

    def test_lower_phases_ordered(self, workloads, runner, upper):
        points = accuracy_history(workloads, runner)
        phases = [point.phase for point in points]
        assert phases == ["phaseA", "phaseB", "phaseC", "final"]
        # The final phase reads v8's run: 8 versions, 3 phases, the machine.
        assert len(runner.cached_results()) == 12

    def test_machine_uses_different_sample(self):
        model = workload_by_name("SPECint2000", warm=1000, timed=500)
        machine = machine_workload(model)
        assert machine.sample_seed == model.seed + MACHINE_SEED_OFFSET
        model_trace = model.trace()
        machine_trace = machine.trace()
        # Same static program (same pcs appear)...
        model_pcs = {record.pc for record in model_trace.records}
        machine_pcs = {record.pc for record in machine_trace.records}
        assert model_pcs & machine_pcs
        # ...but a different dynamic stream.
        assert model_trace.records != machine_trace.records
