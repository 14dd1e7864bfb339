"""Crash-safe campaign service: durable queue + worker pool + store.

:class:`CampaignService` is the repo's one fault-tolerant executor.  It
turns the durable :class:`~repro.service.queue.JobQueue`, a process
pool, and the atomic :class:`~repro.analysis.cache.ResultCache` into a
resilient campaign executor, and it serves both ``repro serve`` and
every parallel figure and sweep (a
:class:`~repro.analysis.runner.ParallelRunner` submits its runs here
and drains them with :meth:`CampaignService.run`):

- **submit** — (config, workload[, cpus]) points enter the queue keyed
  by result-cache content hash; duplicates single-flight, cached points
  complete instantly without touching the pool;
- **serve** — a scheduler loop claims jobs under time-bounded leases,
  fans them out over worker processes, and renews each lease while its
  worker is making progress.  A worker that dies (``BrokenExecutor``),
  raises, or exceeds the policy timeout is charged one attempt and the
  job requeued with deterministic backoff, per
  :class:`~repro.analysis.policy.RunPolicy`;
- **orphans** — a job whose lease expires while its worker is *still
  running* (injected expiry, stalled heartbeats, a slow machine) is
  requeued immediately; if the orphaned worker finishes anyway its
  result is accepted idempotently (content-addressed store + idempotent
  completion make the duplicate harmless);
- **crash recovery** — kill the service at any instant and a new
  instance replays the journal: done jobs stay done, running jobs'
  leases lapse and requeue, and the campaign completes bit-identical to
  a fault-free serial run (``tests/test_service_chaos.py`` proves it);
- **graceful degradation** — bounded queues shed load explicitly, a
  result that lands unreadable is recomputed, and :meth:`result` serves
  a stale in-memory copy when the store goes unreadable under it.

Workers write results straight into the shared result cache (atomic
temp-file + ``os.replace`` + fsync), and the coordinator re-reads every
entry before it completes a job, so the journal stays tiny and a job is
done if and only if its result loads.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.analysis.cache import ResultCache
from repro.analysis.policy import RunPolicy
from repro.common import faults
from repro.common.errors import ExperimentError, QueueFull, ServiceError
from repro.service.jobs import (
    execute_spec,
    make_spec,
    spec_key,
    spec_label,
)
from repro.service.queue import DONE, JobQueue, PENDING


def _service_worker(
    spec: dict, attempt: int, cache_dir: Optional[str]
) -> Tuple[str, int, float]:
    """Pool worker: simulate one job spec and store the result.

    Returns ``(cache key, worker pid, seconds)``.  The payload itself
    travels through the content-addressed store, not the future — the
    coordinator re-reads it, which doubles as an end-to-end check that
    the bytes actually landed.  ``attempt_scope`` lets store-side fault
    sites (kill-mid-write, store-corrupt) honour their ``times=`` budget
    against the *retry attempt* even though each attempt may run in a
    different worker process.
    """
    faults.worker_fault(spec_label(spec), attempt)
    started = time.perf_counter()
    with faults.attempt_scope(attempt):
        payload, meta = execute_spec(spec)
        cache = ResultCache(cache_dir)
        key = spec_key(spec, cache)
        cache.store(key, payload, meta=meta)
    return key, os.getpid(), time.perf_counter() - started


@dataclass
class _Flight:
    """One dispatched (job, attempt) pair tracked by the scheduler."""

    key: str
    label: str
    spec: dict
    attempt: int
    started: float  # time.monotonic at dispatch


@dataclass
class ServiceStats:
    """Observability counters for one service instance."""

    dispatched: int = 0
    cache_hits: int = 0
    #: Charged failures requeued for another attempt.
    retries: int = 0
    stale_serves: int = 0
    orphan_completions: int = 0
    in_process_fallbacks: int = 0
    pool_restarts: int = 0
    timeouts: int = 0
    skipped: List[str] = field(default_factory=list)
    #: Seconds from first failure/expiry of a job to its completion.
    recovery_seconds: List[float] = field(default_factory=list)
    #: (label, seconds, worker pid or None if in-process) per completed run.
    runs: List[Tuple[str, float, Optional[int]]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "dispatched": self.dispatched,
            "cache_hits": self.cache_hits,
            "retries": self.retries,
            "stale_serves": self.stale_serves,
            "orphan_completions": self.orphan_completions,
            "in_process_fallbacks": self.in_process_fallbacks,
            "pool_restarts": self.pool_restarts,
            "timeouts": self.timeouts,
            "skipped": list(self.skipped),
            "recovery_seconds": [round(s, 3) for s in self.recovery_seconds],
        }


class CampaignService:
    """Lease-based campaign executor over a durable job queue."""

    def __init__(
        self,
        queue_path: Union[str, Path],
        cache_dir: Optional[str] = None,
        jobs: int = 2,
        lease_seconds: float = 30.0,
        capacity: Optional[int] = None,
        policy: Optional[RunPolicy] = None,
        verbose: bool = False,
        poll_interval: float = 0.2,
    ) -> None:
        if jobs < 1:
            raise ServiceError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = ResultCache(cache_dir)
        self._cache_dir = str(self.cache.directory)
        self.queue = JobQueue(
            queue_path, lease_seconds=lease_seconds, capacity=capacity
        )
        self.policy = policy or RunPolicy()
        self.verbose = verbose
        self.poll_interval = poll_interval
        self.stats = ServiceStats()
        self.worker_id = f"svc-{os.getpid()}"
        self._executor: Optional[ProcessPoolExecutor] = None
        #: future -> flight for leased, in-flight work.
        self._inflight: Dict[object, _Flight] = {}
        #: future -> flight for work whose lease already expired.
        self._orphans: Dict[object, _Flight] = {}
        #: job key -> monotonic instant of its first failure/expiry.
        self._fail_at: Dict[str, float] = {}
        #: Bounded memory of served payloads, for serve-stale fallback.
        self._stale: Dict[str, dict] = {}
        self._stale_limit = 64

    # -- logging ---------------------------------------------------------

    def _log(self, message: str) -> None:
        if self.verbose:
            print(message)

    # -- pool ------------------------------------------------------------

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def _discard_pool(self) -> bool:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            return True
        return False

    def _kill_pool(self) -> None:
        """Hard-kill every worker (a hung worker cannot be cancelled)."""
        executor = self._executor
        if executor is None:
            return
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:  # noqa: BLE001 - already-dead workers
                pass
        executor.shutdown(wait=False, cancel_futures=True)
        self._executor = None

    # -- submission ------------------------------------------------------

    def submit_point(
        self,
        workload: str,
        config: str = "base",
        cpus: Optional[int] = None,
        **spec_kwargs,
    ) -> str:
        """Validate, build, and submit one sweep point; returns its key."""
        spec = make_spec(workload, config=config, cpus=cpus, **spec_kwargs)
        return self.submit_spec(spec)

    def submit_spec(self, spec: dict) -> str:
        """Submit a prebuilt job spec; returns its queue/cache key.

        Already-cached points complete immediately (source ``cache``)
        without consuming pool capacity.  Raises
        :class:`~repro.common.errors.QueueFull` when shedding.
        """
        key = spec_key(spec, self.cache)
        label = spec_label(spec)
        job = self.queue.submit(spec["kind"], spec, label, key)
        if job.state == PENDING and self.cache.load(key) is not None:
            self.queue.complete(key, worker="cache", source="cache")
            self.stats.cache_hits += 1
            self._log(f"  [cache] {label} complete on submit")
        return key

    # -- scheduler -------------------------------------------------------

    def step(self) -> None:
        """One scheduler tick: poll, lease upkeep, dispatch, collect."""
        self.queue.poll()
        for key in self.queue.enforce_capacity():
            self._log(f"  shed {key} (queue over capacity)")
        self._lease_upkeep()
        self._dispatch()
        self._collect()

    def _lease_upkeep(self) -> None:
        """Renew healthy leases; reclaim hung and expired work.

        A flight past the policy timeout is *hung*: stop renewing,
        kill the pool (a wedged worker cannot be cancelled), charge the
        hung runs an attempt, and requeue the collateral uncharged.  A
        flight whose lease expired without being hung (injected expiry,
        stalled heartbeat) becomes an *orphan*: its job requeues
        immediately, but the worker keeps running and its late result is
        accepted idempotently if it wins the race.
        """
        now_mono = time.monotonic()
        hung: Set[object] = set()
        for future, flight in self._inflight.items():
            if (
                self.policy.timeout is not None
                and now_mono - flight.started > self.policy.timeout
            ):
                hung.add(future)
            else:
                self.queue.heartbeat(flight.key)
        if hung:
            self._kill_pool()
            self.stats.pool_restarts += 1
            for future, flight in list(self._inflight.items()):
                if future in hung:
                    self.stats.timeouts += 1
                    self._log(
                        f"  watchdog: {flight.label} exceeded "
                        f"{self.policy.timeout:.1f}s; killing worker pool"
                    )
                    self._fail(
                        flight,
                        TimeoutError(
                            f"run exceeded {self.policy.timeout}s wall-clock"
                        ),
                    )
                else:
                    # Collateral of the pool kill: requeue uncharged.
                    self.queue.release(flight.key, "pool-restart")
            self._inflight.clear()
            return
        expired = set(self.queue.expire_leases())
        if not expired:
            return
        for future, flight in list(self._inflight.items()):
            if flight.key in expired:
                self._fail_at.setdefault(flight.key, time.monotonic())
                self._log(f"  lease expired on {flight.label}; orphaning run")
                self._orphans[future] = flight
                del self._inflight[future]

    def _dispatch(self) -> None:
        """Claim ready jobs up to pool capacity and fan them out."""
        while len(self._inflight) < self.jobs:
            job = self.queue.claim(self.worker_id)
            if job is None:
                return
            if self.cache.load(job.key) is not None:
                # Finished by an earlier incarnation or a sibling runner.
                self.queue.complete(job.key, worker="cache", source="cache")
                self.stats.cache_hits += 1
                self._note_recovered(job.key)
                self._log(f"  [cache] {job.label}")
                continue
            try:
                future = self._pool().submit(
                    _service_worker, job.spec, job.attempts, self._cache_dir
                )
            except BrokenExecutor:
                # The pool broke under an earlier crash and _collect has
                # not reaped it yet: requeue this claim uncharged and
                # let the next tick build a fresh pool.
                if self._discard_pool():
                    self.stats.pool_restarts += 1
                self.queue.release(job.key, "pool-broken")
                return
            self._inflight[future] = _Flight(
                key=job.key,
                label=job.label,
                spec=job.spec,
                attempt=job.attempts,
                started=time.monotonic(),
            )
            self.stats.dispatched += 1
            self._log(
                f"  dispatch {job.label} (attempt {job.attempts + 1}, "
                f"lease {self.queue.lease_seconds:.0f}s)"
            )

    def _collect(self) -> None:
        """Wait briefly for any in-flight or orphaned run to finish."""
        futures = set(self._inflight) | set(self._orphans)
        if not futures:
            return
        finished, _ = wait(
            futures, timeout=self.poll_interval, return_when=FIRST_COMPLETED
        )
        for future in finished:
            if future in self._inflight:
                self._finish(self._inflight.pop(future), future)
            elif future in self._orphans:
                self._finish_orphan(self._orphans.pop(future), future)

    # -- completion paths ------------------------------------------------

    def _note_recovered(self, key: str) -> None:
        started = self._fail_at.pop(key, None)
        if started is not None:
            self.stats.recovery_seconds.append(time.monotonic() - started)

    def _finish(self, flight: _Flight, future) -> None:
        try:
            key, pid, seconds = future.result()
        except BrokenExecutor as error:
            # The whole pool died (a worker crashed hard); every other
            # in-flight future will raise the same way and be charged.
            if self._discard_pool():
                self.stats.pool_restarts += 1
            self._fail(flight, error)
            return
        except Exception as error:  # noqa: BLE001 - worker raised
            self._fail(flight, error)
            return
        if self.cache.load(key) is None:
            # The worker claims success but the store cannot produce the
            # bytes (corrupt entry was detected and deleted): recompute.
            self._fail(
                flight, ServiceError("stored result unreadable after run")
            )
            return
        if self.queue.complete(key, worker=str(pid)):
            self._note_recovered(key)
            self.stats.runs.append((flight.label, seconds, pid))
            self._log(f"  worker {pid} finished {flight.label} in {seconds:.2f}s")
        else:
            self._log(f"  duplicate completion of {flight.label} (ignored)")

    def _finish_orphan(self, flight: _Flight, future) -> None:
        """An expired-lease run came back: accept its result if valid.

        Failures are ignored — the job was already requeued when the
        lease expired, so the retry path owns it now.
        """
        try:
            key, pid, seconds = future.result()
        except Exception:  # noqa: BLE001
            return
        job = self.queue.jobs.get(key)
        if job is None or job.state == DONE:
            return
        if self.cache.load(key) is None:
            return
        if self.queue.complete(key, worker=str(pid), source="orphan"):
            self.stats.orphan_completions += 1
            self._note_recovered(key)
            self.stats.runs.append((flight.label, seconds, pid))
            self._log(f"  orphaned worker {pid} completed {flight.label}")

    def _fail(self, flight: _Flight, error: BaseException) -> None:
        """Charge one attempt; requeue with backoff or go terminal."""
        self._fail_at.setdefault(flight.key, time.monotonic())
        job = self.queue.jobs.get(flight.key)
        if job is None or job.state == DONE:
            return  # completed elsewhere (orphan/duplicate delivery won)
        next_attempt = job.attempts + 1
        not_before = time.time() + self.policy.backoff_delay(
            flight.label, next_attempt
        )
        outcome = self.queue.fail(
            flight.key,
            self.worker_id,
            error,
            retries=self.policy.retries,
            not_before=not_before,
        )
        if outcome == "requeued":
            self.stats.retries += 1
            self._log(
                f"  worker failed on {flight.label} ({error!r}); retry "
                f"{next_attempt}/{self.policy.retries} queued"
            )
            return
        # Retry budget exhausted: apply the policy.
        if self.policy.on_failure == "fail":
            raise ExperimentError(
                f"{flight.label} failed after {next_attempt} attempts: "
                f"{error!r}"
            ) from error
        if self.policy.on_failure == "skip":
            self.stats.skipped.append(flight.label)
            self._log(f"  giving up on {flight.label} ({error!r}); skipped")
            return
        # Default: last-resort rerun in the service process, which is
        # observable and interruptible.  Worker faults do not fire here
        # (no worker_fault call) and store faults are spared by the high
        # attempt number.
        self.stats.in_process_fallbacks += 1
        self._log(f"  worker failed on {flight.label} ({error!r}); running in-process")
        started = time.perf_counter()
        try:
            with faults.attempt_scope(job.attempts):
                payload, meta = execute_spec(flight.spec)
                for _ in range(2):
                    # Re-read what was stored, as _finish does for worker
                    # runs; an unreadable entry gets the payload in hand
                    # stored once more.
                    self.cache.store(flight.key, payload, meta=meta)
                    if self.cache.load(flight.key) is not None:
                        break
                else:
                    raise ServiceError("stored result unreadable after run")
        except Exception as final_error:  # noqa: BLE001
            raise ExperimentError(
                f"{flight.label} failed in-process after {next_attempt} "
                f"worker attempts: {final_error!r}"
            ) from final_error
        if self.queue.complete(flight.key, worker="in-process"):
            self._note_recovered(flight.key)
            self.stats.runs.append(
                (flight.label, time.perf_counter() - started, None)
            )

    # -- drive -----------------------------------------------------------

    def run(self, follow_idle: float = 0.0) -> None:
        """Serve until every known job is done or dead.

        ``follow_idle > 0`` keeps the service alive that many seconds
        past drained, polling the journal for submissions from other
        processes — the ``repro serve`` long-running mode.
        """
        idle_since: Optional[float] = None
        while True:
            self.step()
            if self._inflight or self._orphans:
                idle_since = None
                continue
            if self.queue.claimable():
                idle_since = None
                continue
            if not self.queue.drained():
                # Pending work gated by retry backoff: wait it out.
                idle_since = None
                time.sleep(min(self.poll_interval, 0.05))
                continue
            if follow_idle <= 0:
                return
            if idle_since is None:
                idle_since = time.monotonic()
            if time.monotonic() - idle_since >= follow_idle:
                return
            time.sleep(self.poll_interval)

    def result(self, key: str) -> Optional[dict]:
        """The stored payload for ``key``; stale fallback on store loss.

        A payload served once is remembered (bounded); if the store
        later becomes unreadable for that key — corrupted, deleted, a
        disk gone read-only — the remembered copy is served instead and
        the job reopened so the store heals on the next serve cycle.
        """
        payload = self.cache.load(key)
        if payload is not None:
            if len(self._stale) >= self._stale_limit:
                self._stale.pop(next(iter(self._stale)))
            self._stale[key] = payload
            return payload
        stale = self._stale.get(key)
        if stale is not None:
            self.stats.stale_serves += 1
            self.queue.reopen(key, "store-unreadable")
            self._log(f"  serving stale copy of {key} (store unreadable)")
            return stale
        return None

    # -- inspection / teardown -------------------------------------------

    def status(self) -> Dict[str, object]:
        return {
            "queue": self.queue.counts(),
            "queue_stats": self.queue.stats.as_dict(),
            "service_stats": self.stats.as_dict(),
            "cache_stats": self.cache.stats.as_dict(),
            "cache_entries": self.cache.entries(),
        }

    def summary(self) -> str:
        stats = self.stats
        parts = [
            self.queue.summary(),
            f"dispatched {stats.dispatched}",
            f"cache hits {stats.cache_hits}",
        ]
        if stats.orphan_completions:
            parts.append(f"orphan completions {stats.orphan_completions}")
        if stats.in_process_fallbacks:
            parts.append(f"in-process fallbacks {stats.in_process_fallbacks}")
        if stats.pool_restarts:
            parts.append(f"pool restarts {stats.pool_restarts}")
        if stats.timeouts:
            parts.append(f"timeouts {stats.timeouts}")
        if stats.stale_serves:
            parts.append(f"stale serves {stats.stale_serves}")
        if stats.skipped:
            parts.append(f"skipped {len(stats.skipped)}")
        if stats.recovery_seconds:
            parts.append(
                f"mean recovery {sum(stats.recovery_seconds) / len(stats.recovery_seconds):.2f}s"
            )
        return ", ".join(parts)

    def close(self) -> None:
        """Stop the pool and close the journal: wait for idle workers, so
        none outlives the service; kill busy ones, which may never finish."""
        if self._inflight or self._orphans:
            self._kill_pool()
        elif self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.queue.close()

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
