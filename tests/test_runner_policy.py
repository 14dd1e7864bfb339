"""Tests for :class:`RunPolicy` and the runner's failure policies.

Covers the pure policy object (validation, deterministic backoff) and
the end-to-end ``fail`` / ``skip`` behaviours of
:class:`~repro.analysis.runner.ParallelRunner` when a run keeps dying.
Timeout and crash *recovery* paths live in ``test_fault_injection.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis.policy import RunPolicy
from repro.analysis.runner import ParallelRunner
from repro.analysis.workloads import workload_by_name
from repro.common import faults
from repro.common.errors import ConfigError, ExperimentError
from repro.model.config import base_config

WARM = 2_000
TIMED = 800


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        policy = RunPolicy()
        assert policy.retries == 1 and policy.on_failure == "retry"

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"timeout": 0.0}, "timeout"),
            ({"timeout": -1.0}, "timeout"),
            ({"retries": -1}, "retries"),
            ({"backoff_base": -0.1}, "backoff"),
            ({"backoff_max": -1.0}, "backoff"),
            ({"backoff_factor": 0.5}, "backoff_factor"),
            ({"jitter": 1.5}, "jitter"),
            ({"jitter": -0.1}, "jitter"),
            ({"on_failure": "explode"}, "on_failure"),
        ],
    )
    def test_rejections(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            RunPolicy(**kwargs)


class TestBackoff:
    def test_no_delay_before_first_retry(self):
        assert RunPolicy().backoff_delay("x", 0) == 0.0

    def test_exponential_growth_without_jitter(self):
        policy = RunPolicy(backoff_base=0.1, backoff_factor=2.0, jitter=0.0)
        assert policy.backoff_delay("x", 1) == pytest.approx(0.1)
        assert policy.backoff_delay("x", 2) == pytest.approx(0.2)
        assert policy.backoff_delay("x", 3) == pytest.approx(0.4)

    def test_clamped_by_backoff_max(self):
        policy = RunPolicy(backoff_base=1.0, backoff_factor=10.0, backoff_max=2.5)
        assert policy.backoff_delay("x", 5) <= 2.5

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RunPolicy(backoff_base=1.0, backoff_factor=1.0, jitter=0.25)
        first = policy.backoff_delay("SPECint95@SPARC64-V", 1)
        again = policy.backoff_delay("SPECint95@SPARC64-V", 1)
        assert first == again  # replays sleep identically
        assert 0.75 <= first <= 1.25
        # Different labels and attempts draw different (still bounded) jitter.
        other = policy.backoff_delay("TPC-C@SPARC64-V", 1)
        assert 0.75 <= other <= 1.25

    def test_zero_base_means_no_sleeping(self):
        policy = RunPolicy(backoff_base=0.0)
        assert policy.backoff_delay("x", 3) == 0.0


@pytest.fixture(autouse=True)
def _clean_faults():
    """No fault spec may leak into other tests (or their workers)."""
    yield
    faults.install_spec(None)
    faults.reset()


def _failing_workload(attempts: int):
    """SPECint95 whose worker runs raise for the first ``attempts`` tries."""
    faults.install_spec(f"worker-raise,times={attempts},match=SPECint95")
    return workload_by_name("SPECint95", warm=WARM, timed=TIMED)


def _fast_policy(**kwargs) -> RunPolicy:
    return RunPolicy(backoff_base=0.01, backoff_max=0.05, **kwargs)


class TestFailurePolicies:
    def test_fail_policy_aborts_loudly(self, tmp_path):
        runner = ParallelRunner(
            jobs=2,
            cache_dir=str(tmp_path),
            policy=_fast_policy(retries=1, on_failure="fail"),
        )
        with pytest.raises(ExperimentError, match="SPECint95.*after 2 attempts"):
            runner.prefetch(up=[(base_config(), _failing_workload(2))])
        assert runner.stats.retries == 1

    def test_skip_policy_records_and_continues(self, tmp_path):
        config = base_config()
        poisoned = _failing_workload(1)
        healthy = workload_by_name("SPECfp95", warm=WARM, timed=TIMED)
        runner = ParallelRunner(
            jobs=2,
            cache_dir=str(tmp_path),
            policy=_fast_policy(retries=0, on_failure="skip"),
        )
        # The healthy sibling in the same batch must still complete.
        runner.prefetch(up=[(config, poisoned), (config, healthy)])
        assert runner.stats.skipped == [f"{poisoned.name}@{config.name}"]
        assert runner.run(config, healthy) is not None

        # try_run degrades to None; run() refuses with a typed error.
        assert runner.try_run(config, poisoned) is None
        with pytest.raises(ExperimentError, match="abandoned"):
            runner.run(config, poisoned)
        assert "skipped 1" in runner.summary()

    def test_retry_policy_falls_back_in_process(self, tmp_path):
        """Default policy: budget spent => one observable in-process rerun.

        Injected worker faults fire only in pool workers, so the
        coordinator's fallback run succeeds.
        """
        runner = ParallelRunner(
            jobs=2,
            cache_dir=str(tmp_path),
            policy=_fast_policy(retries=2, on_failure="retry"),
        )
        runner.prefetch(up=[(base_config(), _failing_workload(3))])
        assert runner.stats.retries == 2
        assert runner.stats.worker_fallbacks == 1
        assert runner.stats.runs_in_process == 1
