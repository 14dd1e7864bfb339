"""The campaign journal: what a rerun of an interrupted campaign relies on.

Every campaign — ``repro serve`` and every parallel figure or sweep —
runs through one durable journal, :class:`repro.service.queue.JobQueue`,
whose points are keyed by :func:`repro.service.jobs.spec_key`.  These
tests pin the journal behaviours a campaign needs to survive exactly
the failures that interrupt it: a kill mid-append, a simulator upgrade
between runs, and a file that is not a journal at all.  (Concurrent
appenders are covered in ``test_service_queue.py``.)
"""

from __future__ import annotations

import json

from repro.analysis.cache import ResultCache
from repro.service.jobs import make_spec, spec_key, spec_label
from repro.service.queue import DONE, JOURNAL_FORMAT, PENDING, JobQueue

WARM = 2_000
TIMED = 800


def _journal(tmp_path, code_hash="deadbeef"):
    return JobQueue(tmp_path / "campaign.jsonl", code_hash=code_hash)


def _point(tmp_path, workload="SPECint95", **kwargs):
    """(spec, key) of one campaign point."""
    spec = make_spec(workload, warm=WARM, timed=TIMED, **kwargs)
    return spec, spec_key(spec, ResultCache(str(tmp_path / "cache")))


def _submit(queue, spec, key):
    return queue.submit(spec["kind"], spec, spec_label(spec), key)


class TestBasics:
    def test_fresh_manifest_is_empty(self, tmp_path):
        with _journal(tmp_path) as journal:
            assert journal.jobs == {}
            assert not journal.resumed
            assert journal.drained()

    def test_mark_and_reload(self, tmp_path):
        spec, key = _point(tmp_path)
        with _journal(tmp_path) as journal:
            _submit(journal, spec, key)
            journal.complete(key, worker="w1")
        with _journal(tmp_path) as reloaded:
            assert reloaded.resumed
            assert reloaded.jobs[key].state == DONE
            assert reloaded.jobs[key].spec == spec

    def test_mark_is_idempotent(self, tmp_path):
        spec, key = _point(tmp_path)
        with _journal(tmp_path) as journal:
            _submit(journal, spec, key)
            assert journal.complete(key, worker="w1")
            assert not journal.complete(key, worker="w2")
        lines = (tmp_path / "campaign.jsonl").read_text().splitlines()
        assert sum('"ev":"done"' in line for line in lines) == 1

    def test_keys_are_deterministic_and_distinct(self, tmp_path):
        _, key = _point(tmp_path)
        assert _point(tmp_path)[1] == key
        assert _point(tmp_path, workload="SPECfp95")[1] != key
        assert _point(tmp_path, config="issue-2way")[1] != key
        assert _point(tmp_path, seed=7)[1] != key
        assert _point(tmp_path, cpus=2)[1] != key

    def test_summary_mentions_state(self, tmp_path):
        spec, key = _point(tmp_path)
        with _journal(tmp_path) as journal:
            _submit(journal, spec, key)
            assert "1 pending" in journal.summary()
            journal.complete(key, worker="w1")
            assert "1 done" in journal.summary()


class TestCrashRecovery:
    def test_torn_final_line_is_dropped(self, tmp_path):
        """A crash mid-append leaves a partial line; replay must shrug."""
        spec, key = _point(tmp_path)
        with _journal(tmp_path) as journal:
            _submit(journal, spec, key)
        path = tmp_path / "campaign.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"ev":"done","job":"' + key)  # no newline, no close

        with _journal(tmp_path) as reloaded:
            assert reloaded.jobs[key].state == PENDING
            reloaded.complete(key, worker="w1")  # seals the torn line first
        with _journal(tmp_path) as final:
            assert final.stats.recovered_drops == 1
            assert "torn" in final.summary()
            assert final.jobs[key].state == DONE

    def test_next_append_after_torn_line_still_parses(self, tmp_path):
        one, one_key = _point(tmp_path)
        two, two_key = _point(tmp_path, workload="SPECfp95")
        with _journal(tmp_path) as journal:
            _submit(journal, one, one_key)
        with (tmp_path / "campaign.jsonl").open("a", encoding="utf-8") as handle:
            handle.write('{"ev":"submit","job":"torn')
        with _journal(tmp_path) as recovered:
            _submit(recovered, two, two_key)
        with _journal(tmp_path) as final:
            assert sorted(final.jobs) == sorted([one_key, two_key])


class TestQuarantine:
    def test_code_version_mismatch_sets_manifest_aside(self, tmp_path):
        spec, key = _point(tmp_path)
        with _journal(tmp_path) as journal:
            _submit(journal, spec, key)
        with _journal(tmp_path, code_hash="cafebabe") as other:
            assert other.jobs == {}  # stale keys are not trusted
        stale = tmp_path / "campaign.jsonl.stale"
        assert stale.exists()
        header = json.loads(stale.read_text().splitlines()[0])
        assert header["code"] == "deadbeef"

    def test_garbage_header_is_quarantined(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        path.write_text("this is not a journal\n")
        with _journal(tmp_path) as journal:
            assert journal.jobs == {}
        assert path.with_suffix(".jsonl.stale").exists()

    def test_format_bump_is_treated_as_unrecognised(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        path.write_text(
            json.dumps({"service": JOURNAL_FORMAT + 1, "code": "deadbeef"}) + "\n"
        )
        with _journal(tmp_path) as journal:
            assert journal.jobs == {}
        assert path.with_suffix(".jsonl.stale").exists()
