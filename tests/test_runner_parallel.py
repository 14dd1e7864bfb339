"""Determinism and robustness tests for :class:`ParallelRunner`.

The parallel runner is only trustworthy if (1) fanning runs out over
worker processes produces *bit-identical* statistics to serial
execution, (2) cache keys cannot alias distinct configurations, and
(3) worker crashes and corrupt cache entries degrade to fresh in-process
runs instead of aborting a sweep.  Each property gets a test here.
"""

from __future__ import annotations

import pytest

from repro.analysis.policy import RunPolicy
from repro.analysis.runner import ExperimentRunner, ParallelRunner
from repro.analysis.workloads import (
    smp_workload,
    standard_workloads,
    workload_by_name,
)
from repro.common import faults
from repro.common.errors import ExperimentError
from repro.model.config import base_config

#: Tiny windows so each simulation finishes in well under a second.
WARM = 2_000
TIMED = 800


def _mini_workloads():
    return standard_workloads(warm=WARM, timed=TIMED)


def _stats(result):
    """Deterministic architectural statistics (no wall-clock fields)."""
    return result.as_dict(include_speed=False)


def _smp_payload(result):
    """A full SMP payload minus its host-time fields (``sim_speed``)."""
    payload = result.to_dict()
    payload.pop("sim_speed")
    for cpu in payload["per_cpu"]:
        cpu.pop("sim_speed")
    return payload


class TestDeterminism:
    def test_serial_vs_jobs1_vs_jobs4(self, tmp_path):
        """Same seed => same stats, regardless of worker scheduling."""
        config = base_config()
        serial = ExperimentRunner()
        expected = {
            w.name: _stats(serial.run(config, w)) for w in _mini_workloads()
        }

        for jobs in (1, 4):
            runner = ParallelRunner(
                jobs=jobs, cache_dir=str(tmp_path / f"cache-{jobs}")
            )
            workloads = _mini_workloads()
            runner.prefetch(up=[(config, w) for w in workloads])
            got = {w.name: _stats(runner.run(config, w)) for w in workloads}
            assert got == expected, f"jobs={jobs} diverged from serial"

    def test_disk_cache_roundtrip_preserves_stats(self, tmp_path):
        """A result served from disk equals the freshly computed one."""
        config = base_config()
        workload = workload_by_name("SPECint95", warm=WARM, timed=TIMED)
        first = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        fresh = first.run(config, workload)

        second = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        cached = second.run(config, workload)
        assert second.stats.disk_hits == 1
        assert second.stats.misses == 0
        assert _stats(cached) == _stats(fresh)


class TestCacheKeys:
    def test_same_name_different_content_no_alias(self):
        """Regression: two configs sharing a *name* must not alias.

        The old runner keyed its memo on ``config.name`` alone, so a
        derived config reusing a name silently returned the other
        config's result.  Content-hash keys make them distinct.
        """
        workload = workload_by_name("SPECint95", warm=WARM, timed=TIMED)
        base = base_config()
        impostor = base.derived(base.name, core=base.core.derived(window_size=8))
        assert impostor.name == base.name
        assert impostor.content_hash() != base.content_hash()

        runner = ExperimentRunner()
        real = runner.run(base, workload)
        shrunk = runner.run(impostor, workload)
        assert len(runner.cached_results()) == 2
        # An 8-entry window cannot keep up with the 64-entry machine.
        assert shrunk.cycles > real.cycles

    def test_same_content_hash_for_equal_configs(self):
        assert base_config().content_hash() == base_config().content_hash()

    def test_transient_configs_never_alias(self):
        """Regression: keys must come from content, not object identity.

        CPython reuses object addresses, so a memo keyed on
        ``id(config)`` can hand a freshly allocated config the hash of
        a dead one.  Churning through transient configs between runs
        reproduces the aliasing when identity leaks into the key.
        """
        import gc

        workload = workload_by_name("SPECint95", warm=WARM, timed=TIMED)
        runner = ExperimentRunner()
        expected = ExperimentRunner().run(base_config(), workload).cycles

        for index in range(30):
            # Allocate, run, and drop a distinct transient config.
            transient = base_config().derived(
                f"transient-{index}",
                core=base_config().core.derived(window_size=8 + index),
            )
            runner.run(transient, workload)
            del transient
            gc.collect()
            fresh = runner.run(base_config(), workload)
            assert fresh.cycles == expected, f"aliased after {index} configs"

    def test_workload_cache_key_tracks_parameters(self):
        short = workload_by_name("SPECint95", warm=1_000, timed=500)
        long = workload_by_name("SPECint95", warm=2_000, timed=500)
        assert short.cache_key() != long.cache_key()
        again = workload_by_name("SPECint95", warm=1_000, timed=500)
        assert short.cache_key() == again.cache_key()


class TestGracefulDegradation:
    def test_worker_crash_falls_back_in_process(self, tmp_path):
        """Both worker attempts of the default policy fail; the runner's
        last resort reruns the point in-process, where worker faults do
        not fire."""
        workload = workload_by_name("SPECint95", warm=WARM, timed=TIMED)
        config = base_config()
        faults.install_spec("worker-raise,times=2")
        try:
            runner = ParallelRunner(jobs=2, cache_dir=str(tmp_path))
            runner.prefetch(up=[(config, workload)])
        finally:
            faults.install_spec(None)
            faults.reset()
        assert runner.stats.worker_fallbacks == 1
        assert runner.stats.runs_in_process == 1

        result = runner.run(config, workload)
        expected = ExperimentRunner().run(config, workload)
        assert _stats(result) == _stats(expected)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=0)


class TestObservability:
    def test_hit_miss_counters_and_timings(self, tmp_path):
        config = base_config()
        workload = workload_by_name("SPECint95", warm=WARM, timed=TIMED)
        runner = ParallelRunner(jobs=1, cache_dir=str(tmp_path))

        runner.run(config, workload)
        assert runner.stats.misses == 1
        assert runner.stats.runs_in_process == 1
        assert len(runner.stats.timings) == 1
        label, seconds, pid = runner.stats.timings[0]
        assert "SPECint95" in label and seconds > 0 and pid is None

        runner.run(config, workload)
        assert runner.stats.memory_hits == 1
        assert "misses 1" in runner.summary()

    def test_prefetch_skips_satisfied_requests(self, tmp_path):
        config = base_config()
        workload = workload_by_name("SPECint95", warm=WARM, timed=TIMED)
        runner = ParallelRunner(jobs=2, cache_dir=str(tmp_path))
        runner.prefetch(up=[(config, workload), (config, workload)])
        assert runner.stats.misses == 1
        runner.prefetch(up=[(config, workload)])
        assert runner.stats.misses == 1


class TestSmpPoints:
    """SMP points take the same prefetch, store and skip path."""

    CPUS = 2

    def _point(self):
        return base_config(), smp_workload(self.CPUS, warm=WARM, timed=TIMED), self.CPUS

    def test_prefetch_matches_serial_and_reloads_from_disk(self, tmp_path):
        point = self._point()
        expected = _smp_payload(ExperimentRunner().run_smp(*point))

        runner = ParallelRunner(jobs=2, cache_dir=str(tmp_path))
        runner.prefetch(smp=[point])
        assert runner.stats.runs_in_workers == 1
        assert _smp_payload(runner.run_smp(*point)) == expected
        runner.close()

        second = ParallelRunner(jobs=2, cache_dir=str(tmp_path))
        assert _smp_payload(second.run_smp(*point)) == expected
        assert second.stats.disk_hits == 1
        assert second.stats.misses == 0
        assert second.cached_results() == {}  # uniprocessor results only
        second.close()

    def test_skip_policy_abandons_the_point(self, tmp_path):
        point = self._point()
        faults.install_spec(f"worker-raise,times=5,match=x{self.CPUS}P")
        try:
            runner = ParallelRunner(
                jobs=2,
                cache_dir=str(tmp_path),
                policy=RunPolicy(
                    retries=0, on_failure="skip", backoff_base=0.01, backoff_max=0.05
                ),
            )
            runner.prefetch(smp=[point])
        finally:
            faults.install_spec(None)
            faults.reset()
        assert runner.stats.skipped == [f"TPC-C (2P)x{self.CPUS}P@{point[0].name}"]
        assert runner.try_run_smp(*point) is None
        with pytest.raises(ExperimentError, match="abandoned"):
            runner.run_smp(*point)
        runner.close()
