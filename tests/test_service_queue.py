"""Unit tests for the durable lease-based job queue.

Every test drives :class:`repro.service.queue.JobQueue` with explicit
``now`` timestamps — no sleeping — so lease arithmetic, retry gating,
and requeue behaviour are checked exactly.  Durability tests reopen the
journal in a fresh instance and assert the replayed state matches.
"""

from __future__ import annotations

import json

import pytest

from repro.common import faults
from repro.common.errors import QueueFull, ServiceError
from repro.service.queue import (
    DEAD,
    DONE,
    JOURNAL_FORMAT,
    PENDING,
    RUNNING,
    JobQueue,
)

T0 = 1_000_000.0  # arbitrary wall-clock origin for explicit-time tests


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    faults.install_spec(None)
    faults.reset()


def _spec(name: str) -> dict:
    return {"v": 1, "kind": "up", "workload": name, "config": "base"}


def _submit(queue: JobQueue, name: str):
    return queue.submit("up", _spec(name), f"{name}@base", f"key-{name}")


class TestLifecycle:
    def test_submit_claim_complete(self, tmp_path):
        with JobQueue(tmp_path / "q.jsonl", lease_seconds=30.0) as queue:
            job = _submit(queue, "a")
            assert job.state == PENDING
            claimed = queue.claim("w1", now=T0)
            assert claimed is job and job.state == RUNNING
            assert job.lease_deadline == T0 + 30.0
            assert queue.complete(job.key, "w1") is True
            assert job.state == DONE
            assert queue.drained()
            assert queue.stats.completions == 1

    def test_fifo_claim_order(self, tmp_path):
        with JobQueue(tmp_path / "q.jsonl") as queue:
            for name in ("a", "b", "c"):
                _submit(queue, name)
            order = [queue.claim("w", now=T0).key for _ in range(3)]
            assert order == ["key-a", "key-b", "key-c"]

    def test_claim_respects_backoff_gate(self, tmp_path):
        with JobQueue(tmp_path / "q.jsonl") as queue:
            job = _submit(queue, "a")
            queue.claim("w", now=T0)
            queue.fail(job.key, "w", "boom", retries=2, not_before=T0 + 10.0)
            assert job.state == PENDING
            assert queue.claim("w", now=T0 + 5.0) is None  # gate closed
            assert not queue.claimable(now=T0 + 5.0)
            assert queue.claim("w", now=T0 + 10.0) is job  # gate open

    def test_completion_is_idempotent(self, tmp_path):
        with JobQueue(tmp_path / "q.jsonl") as queue:
            job = _submit(queue, "a")
            queue.claim("w1", now=T0)
            assert queue.complete(job.key, "w1") is True
            assert queue.complete(job.key, "w2") is False
            assert queue.stats.completions == 1
            assert queue.stats.duplicate_completions == 1

    def test_complete_unknown_job_raises(self, tmp_path):
        with JobQueue(tmp_path / "q.jsonl") as queue:
            with pytest.raises(ServiceError, match="unknown job"):
                queue.complete("nope", "w")

    def test_retry_budget_exhaustion_goes_dead(self, tmp_path):
        with JobQueue(tmp_path / "q.jsonl") as queue:
            job = _submit(queue, "a")
            queue.claim("w", now=T0)
            assert queue.fail(job.key, "w", "x", retries=1) == "requeued"
            assert job.state == PENDING and job.attempts == 1
            queue.claim("w", now=T0)
            assert queue.fail(job.key, "w", "x", retries=1) == "dead"
            assert job.state == DEAD
            assert queue.drained()  # dead is terminal


class TestSingleFlight:
    def test_duplicate_submissions_share_one_job(self, tmp_path):
        with JobQueue(tmp_path / "q.jsonl") as queue:
            first = _submit(queue, "a")
            for _ in range(4):
                again = _submit(queue, "a")
                assert again is first
            assert len(queue.jobs) == 1
            assert first.submissions == 5
            assert queue.stats.submitted == 5
            assert queue.stats.deduped == 4

    def test_dedup_survives_restart(self, tmp_path):
        path = tmp_path / "q.jsonl"
        with JobQueue(path) as queue:
            _submit(queue, "a")
            _submit(queue, "a")
        with JobQueue(path) as replayed:
            assert replayed.resumed
            assert replayed.jobs["key-a"].submissions == 2
            assert replayed.stats.deduped == 1


class TestLeases:
    def test_expired_lease_requeues(self, tmp_path):
        with JobQueue(tmp_path / "q.jsonl", lease_seconds=10.0) as queue:
            job = _submit(queue, "a")
            queue.claim("w1", now=T0)
            assert queue.expire_leases(now=T0 + 9.9) == []
            assert queue.expire_leases(now=T0 + 10.1) == [job.key]
            assert job.state == PENDING and job.worker is None
            assert queue.stats.lease_expiries == 1
            # The job is claimable again, uncharged.
            assert job.attempts == 0
            assert queue.claim("w2", now=T0 + 11.0) is job

    def test_heartbeat_extends_lease(self, tmp_path):
        with JobQueue(tmp_path / "q.jsonl", lease_seconds=10.0) as queue:
            job = _submit(queue, "a")
            queue.claim("w1", now=T0)
            assert queue.heartbeat(job.key, now=T0 + 8.0, force=True)
            assert job.lease_deadline == T0 + 18.0
            assert queue.expire_leases(now=T0 + 10.1) == []

    def test_fresh_lease_renewal_skips_journal(self, tmp_path):
        path = tmp_path / "q.jsonl"
        with JobQueue(path, lease_seconds=10.0) as queue:
            job = _submit(queue, "a")
            queue.claim("w1", now=T0)
            lines_before = path.read_text().count("\n")
            # Deadline is still > lease/2 away: renewal is a no-op.
            assert queue.heartbeat(job.key, now=T0 + 1.0)
            assert path.read_text().count("\n") == lines_before
            # Past the halfway point it journals.
            assert queue.heartbeat(job.key, now=T0 + 6.0)
            assert path.read_text().count("\n") == lines_before + 1

    def test_release_requeues_without_charging(self, tmp_path):
        with JobQueue(tmp_path / "q.jsonl") as queue:
            job = _submit(queue, "a")
            queue.claim("w1", now=T0)
            queue.release(job.key, "pool-restart")
            assert job.state == PENDING and job.attempts == 0
            assert queue.stats.requeues == 1
            assert queue.stats.lease_expiries == 0


class TestCapacity:
    def test_local_submit_sheds_loudly(self, tmp_path):
        with JobQueue(tmp_path / "q.jsonl", capacity=2) as queue:
            _submit(queue, "a")
            _submit(queue, "b")
            with pytest.raises(QueueFull, match="capacity"):
                _submit(queue, "c")
            # Duplicates of a known job never shed (no new backlog).
            _submit(queue, "a")
            assert queue.stats.deduped == 1

    def test_enforce_capacity_sheds_foreign_overflow(self, tmp_path):
        path = tmp_path / "q.jsonl"
        with JobQueue(path) as submitter:  # unbounded foreign submitter
            for name in ("a", "b", "c", "d"):
                _submit(submitter, name)
        with JobQueue(path, capacity=2) as server:
            shed = server.enforce_capacity()
            # Newest submissions shed first; earlier ones keep their spot.
            assert shed == ["key-d", "key-c"]
            assert server.stats.shed == 2
            assert sorted(server.jobs) == ["key-a", "key-b"]
        with JobQueue(path, capacity=2) as replayed:
            assert sorted(replayed.jobs) == ["key-a", "key-b"]
            assert replayed.stats.shed == 2


class TestDurability:
    def test_full_history_replays(self, tmp_path):
        path = tmp_path / "q.jsonl"
        with JobQueue(path, lease_seconds=10.0) as queue:
            a = _submit(queue, "a")
            b = _submit(queue, "b")
            queue.claim("w1", now=T0)
            queue.complete(a.key, "w1")
            queue.claim("w1", now=T0)  # b now running under a live lease
        with JobQueue(path, lease_seconds=10.0) as replayed:
            assert replayed.resumed
            assert replayed.jobs["key-a"].state == DONE
            running = replayed.jobs["key-b"]
            assert running.state == RUNNING
            # The lease is wall-clock, so the new instance can expire it.
            assert replayed.expire_leases(now=T0 + 11.0) == [running.key]
            assert running.state == PENDING

    def test_torn_tail_is_sealed_and_dropped(self, tmp_path):
        path = tmp_path / "q.jsonl"
        with JobQueue(path) as queue:
            _submit(queue, "a")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"ev":"done","job":"key-a","wor')  # crash mid-append
        with JobQueue(path) as replayed:
            # The torn record is held back, not applied: it might be an
            # active writer mid-append rather than a crash.
            assert replayed.jobs["key-a"].state == PENDING
            _submit(replayed, "b")  # appending seals the torn tail first
        with JobQueue(path) as again:
            # Once sealed, the torn line is complete garbage: dropped.
            assert again.stats.recovered_drops == 1
            assert sorted(again.jobs) == ["key-a", "key-b"]
            assert again.jobs["key-a"].state == PENDING

    def test_stale_code_version_quarantines(self, tmp_path):
        path = tmp_path / "q.jsonl"
        with JobQueue(path, code_hash="old") as queue:
            _submit(queue, "a")
        with JobQueue(path, code_hash="new") as fresh:
            assert fresh.jobs == {}
            assert not fresh.resumed
        assert path.with_suffix(".jsonl.stale").exists()

    def test_garbage_header_quarantines(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text("not json at all\n")
        with JobQueue(path) as queue:
            assert queue.jobs == {}
            _submit(queue, "a")  # fresh journal starts cleanly
        assert path.with_suffix(".jsonl.stale").exists()

    def test_cross_instance_poll(self, tmp_path):
        """A server picks up submissions journaled by another process."""
        path = tmp_path / "q.jsonl"
        server = JobQueue(path)
        _submit(server, "a")
        submitter = JobQueue(path)
        assert submitter.jobs["key-a"].state == PENDING  # replay sees it
        _submit(submitter, "b")
        _submit(submitter, "a")  # foreign duplicate
        assert server.poll() == 2
        assert sorted(server.jobs) == ["key-a", "key-b"]
        assert server.jobs["key-a"].submissions == 2
        assert server.poll() == 0  # nothing new; own events skipped
        server.close()
        submitter.close()

    def test_own_events_not_double_applied(self, tmp_path):
        with JobQueue(tmp_path / "q.jsonl") as queue:
            _submit(queue, "a")
            assert queue.poll() == 0
            assert queue.jobs["key-a"].submissions == 1
            assert queue.stats.submitted == 1


def _submit_many(path, tag, count):
    """Child-process body for the concurrent-appender test."""
    with JobQueue(path, code_hash="deadbeef") as queue:
        for index in range(count):
            _submit(queue, f"{tag}-{index:04d}")


class TestConcurrentAppenders:
    def test_two_processes_interleave_at_record_granularity(self, tmp_path):
        """Two submitter processes sharing one journal: O_APPEND plus
        single-write line records mean every record from both survives
        and no line is torn."""
        import multiprocessing

        path = tmp_path / "q.jsonl"
        count = 25
        workers = [
            multiprocessing.Process(target=_submit_many, args=(path, tag, count))
            for tag in ("left", "right")
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
            assert worker.exitcode == 0
        with JobQueue(path, code_hash="deadbeef") as merged:
            assert merged.stats.recovered_drops == 0
            assert merged.stats.submitted == 2 * count
            assert sorted(merged.jobs) == sorted(
                f"key-{tag}-{index:04d}"
                for tag in ("left", "right")
                for index in range(count)
            )

    def test_duplicate_header_from_racing_fresh_appenders(self, tmp_path):
        """Two fresh appenders can both decide the file needs a header;
        replay must treat the second header as benign, not torn."""
        path = tmp_path / "q.jsonl"
        with JobQueue(path, code_hash="deadbeef") as queue:
            _submit(queue, "a")
        # Replay the race: a second fresh appender's header landed
        # between two ordinary records.
        with path.open("a", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"service": JOURNAL_FORMAT, "code": "deadbeef"}) + "\n"
            )
        with JobQueue(path, code_hash="deadbeef") as queue:
            _submit(queue, "b")
        with JobQueue(path, code_hash="deadbeef") as merged:
            assert merged.stats.recovered_drops == 0  # header is not torn
            assert sorted(merged.jobs) == ["key-a", "key-b"]


class TestServiceFaults:
    def test_lease_expiry_fault_forces_requeue(self, tmp_path):
        faults.install_spec("lease-expiry,times=1")
        with JobQueue(tmp_path / "q.jsonl", lease_seconds=1000.0) as queue:
            job = _submit(queue, "a")
            queue.claim("w1", now=T0)
            # Lease is nowhere near lapsed, but the fault forces it.
            assert queue.expire_leases(now=T0 + 1.0) == [job.key]
            queue.claim("w1", now=T0 + 2.0)
            assert queue.expire_leases(now=T0 + 3.0) == []  # times=1 spent

    def test_heartbeat_stall_fault_swallows_renewal(self, tmp_path):
        faults.install_spec("heartbeat-stall,times=1")
        with JobQueue(tmp_path / "q.jsonl", lease_seconds=10.0) as queue:
            job = _submit(queue, "a")
            queue.claim("w1", now=T0)
            assert queue.heartbeat(job.key, now=T0 + 8.0, force=True) is False
            assert job.lease_deadline == T0 + 10.0  # unchanged
            assert queue.heartbeat(job.key, now=T0 + 8.0, force=True) is True

    def test_duplicate_delivery_hands_out_running_job(self, tmp_path):
        faults.install_spec("duplicate-delivery,times=1")
        with JobQueue(tmp_path / "q.jsonl") as queue:
            job = _submit(queue, "a")
            _submit(queue, "b")
            first = queue.claim("w1", now=T0)
            assert first is job
            # The fault makes the next claim re-deliver the running job
            # instead of handing out the pending one.
            again = queue.claim("w2", now=T0)
            assert again is job
            assert queue.stats.duplicate_deliveries == 1
            # Fault spent: the next claim proceeds normally.
            assert queue.claim("w3", now=T0).key == "key-b"

    def test_match_scopes_service_faults(self, tmp_path):
        faults.install_spec("lease-expiry,times=5,match=b@base")
        with JobQueue(tmp_path / "q.jsonl", lease_seconds=1000.0) as queue:
            a = _submit(queue, "a")
            b = _submit(queue, "b")
            queue.claim("w1", now=T0)
            queue.claim("w1", now=T0)
            assert queue.expire_leases(now=T0 + 1.0) == [b.key]
            assert a.state == RUNNING


class TestValidation:
    def test_bad_lease_rejected(self, tmp_path):
        with pytest.raises(ServiceError, match="lease_seconds"):
            JobQueue(tmp_path / "q.jsonl", lease_seconds=0.0)

    def test_bad_capacity_rejected(self, tmp_path):
        with pytest.raises(ServiceError, match="capacity"):
            JobQueue(tmp_path / "q.jsonl", capacity=0)

    def test_journal_records_are_one_line_json(self, tmp_path):
        path = tmp_path / "q.jsonl"
        with JobQueue(path) as queue:
            job = _submit(queue, "a")
            queue.claim("w1", now=T0)
            queue.complete(job.key, "w1")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4  # header + submit + claim + done
        for line in lines:
            assert isinstance(json.loads(line), dict)
