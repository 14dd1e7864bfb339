"""The experiment runner: one memoising path for every simulation point.

Several figures share runs (e.g. the Table 1 base configuration on all
five workloads appears in Figures 8, 9, 11, 14, 16 and 18 as the
baseline), so the runner memoises results — keyed by a *content hash*
of the configuration plus the workload's cache key and the processor
count (``None`` for a uniprocessor point), never by display name alone,
so two configs that share a name but differ in any parameter cannot
alias.

A plain :class:`ExperimentRunner` simulates every memo miss in-process.
:class:`ParallelRunner` is the same runner built with two more parts:

- **a result store**: on a memo miss the runner reads the
  :class:`~repro.analysis.cache.ResultCache` before simulating, and
  stores what it simulates, so regenerating a figure a second time is
  near-instant and rerunning an interrupted campaign resumes from
  whatever it had finished;
- **a campaign service**: :meth:`~ExperimentRunner.prefetch` submits a
  batch of independent points as jobs to the runner's own
  :class:`~repro.service.service.CampaignService` and drains it over
  ``jobs`` worker processes.  The service is the repo's one
  fault-tolerant executor: per-run wall-clock timeouts with a watchdog
  that kills and respawns a hung pool, bounded retries with
  deterministic jittered backoff, and the
  :class:`~repro.analysis.policy.RunPolicy` last resort (``retry``
  in-process / ``fail`` loudly / ``skip`` and record).  A skipped point
  reads back as ``None`` from :meth:`~ExperimentRunner.try_run`.

Every runner counts memory hits, disk hits, misses, retries, timeouts
and pool restarts, and records per-run wall-clock and worker id.

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
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

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
#: (config hash, workload key, cpu count or None for a uniprocessor run).
PointKey = Tuple[str, str, Optional[int]]
Result = Union[SimResult, SmpResult]


def simulate(
    config: MachineConfig, workload: Workload, cpus: Optional[int] = None
) -> Result:
    """One simulation point, in whichever process this runs.

    With ``cpus`` set, an SMP run over per-CPU traces of ``workload``.
    Otherwise a uniprocessor run: sampled when the workload carries a
    :class:`~repro.trace.sampling.SamplingPlan` (the plan's per-window
    warm-up replaces the trace-prefix warm-up fraction), else in full
    detail.
    """
    if cpus is not None:
        traces, regions = workload.smp_traces(cpus)
        return run_smp(
            config,
            traces,
            warmup_fraction=workload.warmup_fraction,
            regions_per_cpu=regions,
        )
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


def result_meta(result: Result, workload: Workload, cpus: Optional[int]) -> dict:
    """The ``meta`` a stored result carries, however it was produced."""
    meta = {"config": result.config_name, "workload": workload.name}
    if cpus is not None:
        meta["cpus"] = cpus
    return meta


def point_label(workload_name: str, config_name: str, cpus: Optional[int]) -> str:
    """A point's run label, ``workload@config`` or ``workloadxNP@config``:
    what run records, skip lists and fault ``match=`` patterns see."""
    size = "" if cpus is None else f"x{cpus}P"
    return f"{workload_name}{size}@{config_name}"


def _point_key(
    config: MachineConfig, workload: Workload, cpus: Optional[int]
) -> PointKey:
    # Always recomputed from content: memoising the hash by
    # ``id(config)`` is tempting but wrong — CPython reuses addresses
    # after garbage collection, so a transient config can inherit a
    # freed object's hash and silently alias a different machine.
    return (config.content_hash(), workload.cache_key(), cpus)


def _cache_key(cache: ResultCache, key: PointKey) -> str:
    return cache.key("up" if key[2] is None else "smp", *key)


def _decode(cpus: Optional[int], payload: Optional[dict]) -> Optional[Result]:
    if payload is None:
        return None
    try:
        if cpus is None:
            return sim_result_from_dict(payload)
        return SmpResult.from_dict(payload)
    except (ValueError, TypeError, KeyError):
        # Payload from an incompatible writer: treat as a miss.
        return None


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
    """Runs simulation points, caching results in memory.

    A plain runner has no result store (:attr:`cache` is ``None``) and no
    campaign service, so :meth:`prefetch` is a no-op and every memo miss
    runs in-process; :class:`ParallelRunner` supplies both.
    """

    def __init__(self, verbose: bool = False) -> None:
        self.verbose = verbose
        self.stats = RunnerStats()
        #: Optional persistent result store, read before simulating.
        self.cache: Optional[ResultCache] = None
        #: Optional campaign service that :meth:`prefetch` drains through.
        self._service = None
        self._results: Dict[PointKey, Result] = {}
        #: Points abandoned under the ``skip`` failure policy.
        self._skipped: Set[PointKey] = set()

    def _log(self, message: str) -> None:
        if self.verbose:
            print(message)

    # -- the one result path ---------------------------------------------

    def _result(
        self,
        config: MachineConfig,
        workload: Workload,
        cpus: Optional[int],
        required: bool,
    ) -> Optional[Result]:
        """Memo, then disk, then an in-process run; ``None`` for a point
        the ``skip`` policy abandoned, unless ``required``."""
        key = _point_key(config, workload, cpus)
        if key in self._skipped:
            if not required:
                return None
            retry = "try_run" if cpus is None else "try_run_smp"
            raise ExperimentError(
                f"{point_label(workload.name, config.name, cpus)} was abandoned after "
                f"repeated failures (policy on_failure=skip); use {retry}() "
                f"to render partial results"
            )
        result = self._results.get(key)
        if result is not None:
            self.stats.memory_hits += 1
            return result
        label = point_label(workload.name, config.name, cpus)
        result = self._load(key)
        if result is not None:
            self.stats.disk_hits += 1
            self._log(f"  [cache] {label}")
        else:
            self.stats.misses += 1
            self._log(f"  running {label} ...")
            started = time.perf_counter()
            result = simulate(config, workload, cpus)
            self.stats.record_run(label, time.perf_counter() - started, None)
            if self.cache is not None:
                self.cache.store(
                    _cache_key(self.cache, key),
                    result.to_dict(),
                    meta=result_meta(result, workload, cpus),
                )
        self._results[key] = result
        return result

    def _load(self, key: PointKey) -> Optional[Result]:
        if self.cache is None:
            return None
        return _decode(key[2], self.cache.load(_cache_key(self.cache, key)))

    def run(self, config: MachineConfig, workload: Workload) -> SimResult:
        """Uniprocessor run of ``workload`` on ``config`` (cached)."""
        return self._result(config, workload, None, required=True)

    def run_smp(
        self, config: MachineConfig, workload: Workload, cpu_count: int
    ) -> SmpResult:
        """SMP run with per-CPU traces of ``workload`` (cached)."""
        return self._result(config, workload, cpu_count, required=True)

    def try_run(
        self, config: MachineConfig, workload: Workload
    ) -> Optional[SimResult]:
        """Like :meth:`run`, but ``None`` for a run abandoned by policy.

        Sweeps and figures call it so the same code renders partial
        tables when a campaign skipped points.
        """
        return self._result(config, workload, None, required=False)

    def try_run_smp(
        self, config: MachineConfig, workload: Workload, cpu_count: int
    ) -> Optional[SmpResult]:
        """SMP counterpart of :meth:`try_run`."""
        return self._result(config, workload, cpu_count, required=False)

    # -- parallel fan-out ------------------------------------------------

    def prefetch(
        self,
        up: Sequence[UpRequest] = (),
        smp: Sequence[SmpRequest] = (),
    ) -> None:
        """Execute a batch of runs across workers, filling the memo.

        A runner without a campaign service returns at once and runs
        each point lazily.  Otherwise requests already satisfied by the
        memo or the result store are skipped; the rest are submitted as
        jobs to the service and drained over its worker processes, which
        retries, times out and falls back per the runner's policy — a
        single crash or hang never loses the batch.
        """
        if self._service is None:
            return
        from repro.service.jobs import job_spec
        from repro.service.queue import DEAD
        from repro.service.service import ServiceStats

        #: memo key -> service job key, in request order.
        pending: Dict[PointKey, str] = {}
        points = [(config, workload, None) for config, workload in up] + list(smp)
        for config, workload, cpus in points:
            key = _point_key(config, workload, cpus)
            if key in self._results or key in pending or key in self._skipped:
                continue
            cached = self._load(key)
            if cached is not None:
                self.stats.disk_hits += 1
                self._results[key] = cached
                continue
            pending[key] = self._service.submit_spec(job_spec(config, workload, cpus))
        if not pending:
            return
        self.stats.misses += len(pending)
        self._log(
            f"  fanning {len(pending)} runs out over {self._service.jobs} workers ..."
        )

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
        for key, job_key in pending.items():
            if jobs[job_key].state == DEAD:
                self._skipped.add(key)
                continue
            # An entry that cannot be read back stays uninstalled; the
            # in-process path recomputes it on demand.
            result = _decode(key[2], self._service.cache.load(job_key))
            if result is not None:
                self._results[key] = result

    # -- reporting -------------------------------------------------------

    def cached_results(self) -> Dict[Tuple[str, str], SimResult]:
        """All uniprocessor results produced so far."""
        return {
            (config_hash, workload_key): result
            for (config_hash, workload_key, cpus), result in self._results.items()
            if cpus is None
        }

    def metrics(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Flat registry metrics for every uniprocessor result so far.

        Keyed like :meth:`cached_results`; each value is the result's
        :func:`repro.observe.registry.collect` dictionary (scalars plus
        ``decode_stalls.*`` and ``cpistack.*``), ready for tabulation or
        export without touching per-result attribute paths.
        """
        from repro.observe.registry import collect

        return {key: collect(result) for key, result in self.cached_results().items()}

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


class ParallelRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` with a campaign service and a store.

    ``jobs`` bounds the worker pool :meth:`prefetch` drains through;
    individual :meth:`run`/:meth:`run_smp` calls on a point not yet
    prefetched execute in-process (one simulation cannot be split), so
    figure and sweep code prefetches its whole (config × workload)
    matrix first and then reads results back one point at a time.

    ``policy`` governs failure handling for worker runs (timeouts,
    retries, backoff; see :class:`~repro.analysis.policy.RunPolicy`).
    The runner owns one :class:`~repro.service.service.CampaignService`
    for its whole lifetime, so the worker pool and each worker's
    workload memo survive between prefetch batches.  The service's job
    journal lives in a private temporary directory, and so does its
    result store when ``use_cache`` is off (the runner then reads no
    store of its own).
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

    def close(self) -> None:
        """Shut the worker pool down (also safe to never call)."""
        self._service.close()
        self._tempdir.cleanup()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass
