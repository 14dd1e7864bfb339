"""Experiment runners: serial (in-process) and parallel (multi-process).

Several figures share runs (e.g. the Table 1 base configuration on all
five workloads appears in Figures 8, 9, 11, 14, 16 and 18 as the
baseline), so both runners memoise results — keyed by a *content hash*
of the configuration plus the workload's cache key, never by display
name alone, so two configs that share a name but differ in any
parameter cannot alias.

:class:`ParallelRunner` extends the serial runner with

- **fan-out**: :meth:`~ParallelRunner.prefetch` submits a batch of
  independent (config, workload[, cpu_count]) simulations as jobs to
  the runner's own :class:`~repro.service.service.CampaignService` and
  drains it over ``jobs`` worker processes.  The service is the repo's
  one fault-tolerant executor: per-run wall-clock timeouts with a
  watchdog that kills and respawns a hung pool, bounded retries with
  deterministic jittered backoff, and the
  :class:`~repro.analysis.policy.RunPolicy` last resort (``retry``
  in-process / ``fail`` loudly / ``skip`` and record);
- **persistence**: results are memoised to disk through
  :class:`~repro.analysis.cache.ResultCache`, so regenerating a figure a
  second time is near-instant, and rerunning an interrupted campaign
  resumes from whatever it had finished;
- **observability**: per-run wall-clock, worker id, and hit/miss,
  retry, timeout and pool-restart counters.

Determinism: the simulation depends only on (config, trace) and every
trace is regenerated in the worker from an explicit seed
(:mod:`repro.common.rng`), so serial and parallel execution produce
bit-identical statistics regardless of worker scheduling — and
regardless of retries, because a retried run is the same pure function
re-evaluated.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.cache import ResultCache
from repro.analysis.policy import RunPolicy
from repro.analysis.workloads import Workload
from repro.common.errors import ExperimentError
from repro.model.config import MachineConfig
from repro.model.simulator import PerformanceModel
from repro.model.stats import SimResult, sim_result_from_dict
from repro.smp.system import SmpResult, run_smp

#: (config, workload) pair for a uniprocessor prefetch.
UpRequest = Tuple[MachineConfig, Workload]
#: (config, workload, cpu_count) triple for an SMP prefetch.
SmpRequest = Tuple[MachineConfig, Workload, int]


def _run_up(config: MachineConfig, workload: Workload) -> SimResult:
    """One uniprocessor simulation, in whichever process this runs.

    A workload carrying a :class:`~repro.trace.sampling.SamplingPlan`
    runs sampled (the plan's per-window warm-up replaces the trace-prefix
    warm-up fraction); otherwise it runs in full detail.
    """
    model = PerformanceModel(config)
    if workload.sampling is not None:
        return model.run_sampled(
            workload.trace(), workload.sampling, regions=workload.regions()
        )
    return model.run(
        workload.trace(),
        warmup_fraction=workload.warmup_fraction,
        regions=workload.regions(),
    )


def _run_smp(config: MachineConfig, workload: Workload, cpu_count: int) -> SmpResult:
    """One SMP simulation, in whichever process this runs."""
    traces, regions = workload.smp_traces(cpu_count)
    return run_smp(
        config,
        traces,
        warmup_fraction=workload.warmup_fraction,
        regions_per_cpu=regions,
    )


@dataclass
class RunnerStats:
    """Observability counters for one runner instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    runs_in_process: int = 0
    runs_in_workers: int = 0
    worker_fallbacks: int = 0
    #: Worker-side re-submissions after a failure or timeout.
    retries: int = 0
    #: Runs whose wall-clock watchdog expired.
    timeouts: int = 0
    #: Times the hung/broken worker pool was killed and respawned.
    pool_restarts: int = 0
    #: Labels abandoned under the ``skip`` failure policy.
    skipped: List[str] = field(default_factory=list)
    total_run_seconds: float = 0.0
    #: (label, seconds, worker pid or None) per executed simulation.
    timings: List[Tuple[str, float, Optional[int]]] = field(default_factory=list)

    def record_run(self, label: str, seconds: float, pid: Optional[int]) -> None:
        self.total_run_seconds += seconds
        self.timings.append((label, seconds, pid))
        if pid is None:
            self.runs_in_process += 1
        else:
            self.runs_in_workers += 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "runs_in_process": self.runs_in_process,
            "runs_in_workers": self.runs_in_workers,
            "worker_fallbacks": self.worker_fallbacks,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_restarts": self.pool_restarts,
            "skipped": list(self.skipped),
            "total_run_seconds": round(self.total_run_seconds, 3),
        }


class ExperimentRunner:
    """Runs (config, workload) pairs serially, caching results in memory."""

    def __init__(self, verbose: bool = False) -> None:
        self.verbose = verbose
        self.stats = RunnerStats()
        self._up_cache: Dict[Tuple[str, str], SimResult] = {}
        self._smp_cache: Dict[Tuple[str, str, int], SmpResult] = {}

    # -- keys ------------------------------------------------------------
    #
    # Keys are always recomputed from content: memoising the hash by
    # ``id(config)`` is tempting but wrong — CPython reuses addresses
    # after garbage collection, so a transient config can inherit a
    # freed object's hash and silently alias a different machine.

    def _up_key(self, config: MachineConfig, workload: Workload) -> Tuple[str, str]:
        return (config.content_hash(), workload.cache_key())

    def _smp_key(
        self, config: MachineConfig, workload: Workload, cpu_count: int
    ) -> Tuple[str, str, int]:
        return (config.content_hash(), workload.cache_key(), cpu_count)

    # -- logging ---------------------------------------------------------

    def _log(self, message: str) -> None:
        if self.verbose:
            print(message)

    # -- execution -------------------------------------------------------

    def run(self, config: MachineConfig, workload: Workload) -> SimResult:
        """Uniprocessor run of ``workload`` on ``config`` (cached)."""
        key = self._up_key(config, workload)
        result = self._up_cache.get(key)
        if result is None:
            result = self._fetch_up(key, config, workload)
            self._up_cache[key] = result
        else:
            self.stats.memory_hits += 1
        return result

    def run_smp(
        self, config: MachineConfig, workload: Workload, cpu_count: int
    ) -> SmpResult:
        """SMP run with per-CPU traces of ``workload`` (cached)."""
        key = self._smp_key(config, workload, cpu_count)
        result = self._smp_cache.get(key)
        if result is None:
            result = self._fetch_smp(key, config, workload, cpu_count)
            self._smp_cache[key] = result
        else:
            self.stats.memory_hits += 1
        return result

    def _fetch_up(
        self, key: Tuple[str, str], config: MachineConfig, workload: Workload
    ) -> SimResult:
        """Produce an uncached uniprocessor result (serial: just run)."""
        self.stats.misses += 1
        self._log(f"  running {workload.name} on {config.name} ...")
        started = time.perf_counter()
        result = _run_up(config, workload)
        self.stats.record_run(
            f"{workload.name}@{config.name}", time.perf_counter() - started, None
        )
        return result

    def _fetch_smp(
        self,
        key: Tuple[str, str, int],
        config: MachineConfig,
        workload: Workload,
        cpu_count: int,
    ) -> SmpResult:
        """Produce an uncached SMP result (serial: just run)."""
        self.stats.misses += 1
        self._log(f"  running {workload.name} x{cpu_count}P on {config.name} ...")
        started = time.perf_counter()
        result = _run_smp(config, workload, cpu_count)
        self.stats.record_run(
            f"{workload.name}x{cpu_count}P@{config.name}",
            time.perf_counter() - started,
            None,
        )
        return result

    def prefetch(
        self,
        up: Sequence[UpRequest] = (),
        smp: Sequence[SmpRequest] = (),
    ) -> None:
        """Hint that these runs are coming.  Serial runner: no-op (lazy)."""

    def try_run(
        self, config: MachineConfig, workload: Workload
    ) -> Optional[SimResult]:
        """Like :meth:`run`, but ``None`` for a run abandoned by policy.

        The serial runner never abandons a run, so this is plain
        :meth:`run`; sweeps call it so the same code renders partial
        tables when a parallel runner skipped points.
        """
        return self.run(config, workload)

    def try_run_smp(
        self, config: MachineConfig, workload: Workload, cpu_count: int
    ) -> Optional[SmpResult]:
        """SMP counterpart of :meth:`try_run`."""
        return self.run_smp(config, workload, cpu_count)

    def cached_results(self) -> Dict[Tuple[str, str], SimResult]:
        """All uniprocessor results produced so far."""
        return dict(self._up_cache)

    def metrics(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Flat registry metrics for every uniprocessor result so far.

        Keyed like :meth:`cached_results`; each value is the result's
        :func:`repro.observe.registry.collect` dictionary (scalars plus
        ``decode_stalls.*`` and ``cpistack.*``), ready for tabulation or
        export without touching per-result attribute paths.
        """
        from repro.observe.registry import collect

        return {key: collect(result) for key, result in self._up_cache.items()}


class ParallelRunner(ExperimentRunner):
    """Multi-process experiment runner with a persistent disk cache.

    ``jobs`` bounds the worker pool :meth:`prefetch` drains through;
    individual :meth:`run`/:meth:`run_smp` calls always execute
    in-process (one simulation cannot be split), so figure and sweep
    code prefetches its whole (config × workload) matrix first and then
    reads results back through the ordinary serial interface.

    ``policy`` governs failure handling for worker runs (timeouts,
    retries, backoff; see :class:`~repro.analysis.policy.RunPolicy`).
    The runner owns one :class:`~repro.service.service.CampaignService`
    for its whole lifetime, so the worker pool and each worker's
    workload memo survive between prefetch batches.  The service's job
    journal lives in a private temporary directory, and so does its
    result store when ``use_cache`` is off.
    """

    def __init__(
        self,
        jobs: int = 1,
        verbose: bool = False,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        policy: Optional[RunPolicy] = None,
    ) -> None:
        from repro.service.service import CampaignService

        super().__init__(verbose=verbose)
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.policy = policy or RunPolicy()
        self._tempdir = tempfile.TemporaryDirectory(prefix="repro-runner-")
        if not use_cache:
            cache_dir = os.path.join(self._tempdir.name, "store")
        self._service = CampaignService(
            os.path.join(self._tempdir.name, "journal.jsonl"),
            cache_dir=cache_dir,
            jobs=jobs,
            policy=self.policy,
            verbose=verbose,
        )
        self.cache = self._service.cache if use_cache else None
        #: Keys abandoned under the ``skip`` failure policy.
        self._skipped: Set[Tuple[str, Tuple]] = set()

    def close(self) -> None:
        """Shut the worker pool down (also safe to never call)."""
        self._service.close()
        self._tempdir.cleanup()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # -- disk cache ------------------------------------------------------

    def _memo(self, kind: str) -> dict:
        return self._up_cache if kind == "up" else self._smp_cache

    @staticmethod
    def _decode(kind: str, payload: Optional[dict]):
        if payload is None:
            return None
        try:
            if kind == "up":
                return sim_result_from_dict(payload)
            return SmpResult.from_dict(payload)
        except (ValueError, TypeError, KeyError):
            # Payload from an incompatible writer: treat as a miss.
            return None

    def _disk_load(self, kind: str, key: Tuple):
        if self.cache is None:
            return None
        return self._decode(kind, self.cache.load(self.cache.key(kind, *key)))

    def _disk_store(
        self, kind: str, key: Tuple, result, workload: Workload
    ) -> None:
        if self.cache is None:
            return
        meta = {"config": result.config_name, "workload": workload.name}
        if kind == "smp":
            meta["cpus"] = key[2]
        self.cache.store(self.cache.key(kind, *key), result.to_dict(), meta=meta)

    # -- skip policy -----------------------------------------------------

    def _is_skipped(self, kind: str, key: Tuple) -> bool:
        return (kind, key) in self._skipped

    def run(self, config: MachineConfig, workload: Workload) -> SimResult:
        key = self._up_key(config, workload)
        if self._is_skipped("up", key):
            raise ExperimentError(
                f"{workload.name}@{config.name} was abandoned after repeated "
                f"failures (policy on_failure=skip); use try_run() to render "
                f"partial results"
            )
        return super().run(config, workload)

    def run_smp(
        self, config: MachineConfig, workload: Workload, cpu_count: int
    ) -> SmpResult:
        key = self._smp_key(config, workload, cpu_count)
        if self._is_skipped("smp", key):
            raise ExperimentError(
                f"{workload.name}x{cpu_count}P@{config.name} was abandoned "
                f"after repeated failures (policy on_failure=skip); use "
                f"try_run_smp() to render partial results"
            )
        return super().run_smp(config, workload, cpu_count)

    def try_run(
        self, config: MachineConfig, workload: Workload
    ) -> Optional[SimResult]:
        if self._is_skipped("up", self._up_key(config, workload)):
            return None
        return super().run(config, workload)

    def try_run_smp(
        self, config: MachineConfig, workload: Workload, cpu_count: int
    ) -> Optional[SmpResult]:
        if self._is_skipped("smp", self._smp_key(config, workload, cpu_count)):
            return None
        return super().run_smp(config, workload, cpu_count)

    # -- serial-path overrides (memo miss) -------------------------------

    def _fetch_up(
        self, key: Tuple[str, str], config: MachineConfig, workload: Workload
    ) -> SimResult:
        cached = self._disk_load("up", key)
        if cached is not None:
            self.stats.disk_hits += 1
            self._log(f"  [cache] {workload.name} on {config.name}")
            return cached
        result = super()._fetch_up(key, config, workload)
        self._disk_store("up", key, result, workload)
        return result

    def _fetch_smp(
        self,
        key: Tuple[str, str, int],
        config: MachineConfig,
        workload: Workload,
        cpu_count: int,
    ) -> SmpResult:
        cached = self._disk_load("smp", key)
        if cached is not None:
            self.stats.disk_hits += 1
            self._log(f"  [cache] {workload.name} x{cpu_count}P on {config.name}")
            return cached
        result = super()._fetch_smp(key, config, workload, cpu_count)
        self._disk_store("smp", key, result, workload)
        return result

    # -- parallel fan-out ------------------------------------------------

    def prefetch(
        self,
        up: Sequence[UpRequest] = (),
        smp: Sequence[SmpRequest] = (),
    ) -> None:
        """Execute a batch of runs across workers, filling the caches.

        Requests already satisfied by the in-memory memo or the disk
        cache are skipped; the rest are submitted as jobs to the
        runner's campaign service and drained over ``jobs`` worker
        processes, which retries, times out and falls back per
        ``policy`` — a single crash or hang never loses the batch.
        """
        from repro.service.jobs import job_spec
        from repro.service.queue import DEAD
        from repro.service.service import ServiceStats

        requests = [
            ("up", self._up_key(config, workload), config, workload, None)
            for config, workload in up
        ] + [
            ("smp", self._smp_key(config, workload, cpus), config, workload, cpus)
            for config, workload, cpus in smp
        ]
        #: (kind, memo key) -> service job key, in request order.
        pending: Dict[Tuple[str, Tuple], str] = {}
        for kind, key, config, workload, cpus in requests:
            if key in self._memo(kind) or (kind, key) in pending:
                continue
            if self._is_skipped(kind, key):
                continue
            cached = self._disk_load(kind, key)
            if cached is not None:
                self.stats.disk_hits += 1
                self._memo(kind)[key] = cached
                continue
            pending[(kind, key)] = self._service.submit_spec(
                job_spec(config, workload, cpus)
            )
        if not pending:
            return
        self.stats.misses += len(pending)
        self._log(f"  fanning {len(pending)} runs out over {self.jobs} workers ...")

        self._service.stats = ServiceStats()
        try:
            self._service.run()
        finally:
            drained = self._service.stats
            self.stats.retries += drained.retries
            self.stats.timeouts += drained.timeouts
            self.stats.pool_restarts += drained.pool_restarts
            self.stats.worker_fallbacks += drained.in_process_fallbacks
            self.stats.skipped.extend(drained.skipped)
            for label, seconds, pid in drained.runs:
                self.stats.record_run(label, seconds, pid)

        jobs = self._service.queue.jobs
        for (kind, key), job_key in pending.items():
            if jobs[job_key].state == DEAD:
                self._skipped.add((kind, key))
                continue
            # An entry that cannot be read back stays uninstalled; the
            # serial path recomputes it on demand.
            result = self._decode(kind, self._service.cache.load(job_key))
            if result is not None:
                self._memo(kind)[key] = result

    def summary(self) -> str:
        """One-line observability summary (cache + execution counters)."""
        stats = self.stats
        parts = [
            f"memory hits {stats.memory_hits}",
            f"disk hits {stats.disk_hits}",
            f"misses {stats.misses}",
            f"in-process runs {stats.runs_in_process}",
            f"worker runs {stats.runs_in_workers}",
            f"fallbacks {stats.worker_fallbacks}",
            f"sim time {stats.total_run_seconds:.1f}s",
        ]
        if stats.retries:
            parts.append(f"retries {stats.retries}")
        if stats.timeouts:
            parts.append(f"timeouts {stats.timeouts}")
        if stats.pool_restarts:
            parts.append(f"pool restarts {stats.pool_restarts}")
        if stats.skipped:
            parts.append(f"skipped {len(stats.skipped)}")
        if self.cache is not None:
            parts.append(f"cache corrupt {self.cache.stats.corrupt}")
        return ", ".join(parts)
