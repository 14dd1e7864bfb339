"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1(self, capsys):
        main(["table1"])
        out = capsys.readouterr().out
        assert "SPARC-V9" in out
        assert "1.3 GHz" in out

    def test_table1_variant(self, capsys):
        main(["table1", "--config", "l2-off-8m-2w"])
        out = capsys.readouterr().out
        assert "8 MB" in out

    def test_unknown_config_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "SPECint95", "--config", "nope"])

    def test_run_small(self, capsys):
        main(["run", "SPECint95", "--warm", "4000", "--timed", "2000"])
        out = capsys.readouterr().out
        assert "ipc" in out

    def test_trace_generation(self, tmp_path, capsys):
        path = tmp_path / "t.trc"
        main(["trace", "SPECfp95", str(path), "--length", "2000"])
        assert path.exists()
        out = capsys.readouterr().out
        assert "2,000 records" in out
        from repro.trace.io import read_trace

        assert len(read_trace(path)) == 2000

    def test_trace_unknown_workload(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "SPECweb", str(tmp_path / "t.trc")])

    def test_verify(self, capsys):
        main(["verify", "--length", "1200", "--workload", "SPECint95"])
        out = capsys.readouterr().out
        assert "cross-check OK" in out

    def test_smp(self, capsys):
        main(["smp", "--cpus", "2", "--warm", "2000", "--timed", "1000"])
        out = capsys.readouterr().out
        assert "system_ipc" in out
        assert "TPC-C-2P" in out

    def test_profile(self, capsys):
        main(["profile", "SPECint95", "--warm", "2000", "--timed", "1000", "--top", "5"])
        out = capsys.readouterr().out
        assert "profiling SPECint95 (1,000 timed instructions)" in out
        assert "trace-instructions/s" in out


class TestFiguresGate:
    """``repro figures`` grades each figure's claims and exits 1 on a FAIL;
    the figure itself is stubbed with a hand-built Figure 18 result."""

    def _figure18(self, monkeypatch, tmp_path, ratio):
        from repro.analysis import figures

        result = figures.IpcRatioResult(
            "Figure 18", "1RS", "2RS", {"SPECint95": 0.95, "TPC-C": ratio}
        )
        monkeypatch.setattr(figures, "run_figure", lambda *args: result)
        main(["figures", "18", "--quiet", "--cache-dir", str(tmp_path)])

    def test_passing_claims_exit_zero(self, monkeypatch, tmp_path, capsys):
        self._figure18(monkeypatch, tmp_path, 0.99)
        out = capsys.readouterr().out
        assert "fig18.2rs-not-faster" in out
        assert "claims: 2 PASS, 0 WEAK, 0 FAIL" in out

    def test_failed_claim_exits_nonzero(self, monkeypatch, tmp_path, capsys):
        with pytest.raises(SystemExit, match="fig18.2rs-not-faster"):
            self._figure18(monkeypatch, tmp_path, 1.05)
        assert "claims: 1 PASS, 0 WEAK, 1 FAIL" in capsys.readouterr().out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit, match="unknown figure '10'"):
            main(["figures", "10"])


class TestAnalyze:
    @staticmethod
    def _cpistack(tmp_path, capsys, *workloads):
        """Run each workload on the base machine into one cache, then
        render ``repro analyze cpistack`` from it."""
        from repro.analysis import ResultCache
        from repro.analysis.runner import ExperimentRunner
        from repro.model.config import base_config

        runner = ExperimentRunner()
        runner.cache = ResultCache(str(tmp_path))
        for workload in workloads:
            runner.run(base_config(), workload)
        main(["analyze", "cpistack", "--cache-dir", str(tmp_path)])
        return capsys.readouterr().out

    @staticmethod
    def _sampled(name):
        from repro.analysis.workloads import workload_by_name
        from repro.trace.sampling import SamplingPlan

        workload = workload_by_name(name, warm=0, timed=6000)
        workload.sampling = SamplingPlan(period=2000, sample_length=300, warmup=400)
        return workload

    def test_cpistack_lists_full_and_sampled_runs(self, tmp_path, capsys):
        from repro.analysis.workloads import workload_by_name

        out = self._cpistack(
            tmp_path, capsys,
            workload_by_name("SPECint95", warm=2000, timed=1000), self._sampled("TPC-C"),
        )
        assert "2 cached run(s)" in out
        assert "SPECint95@SPARC64-V" in out
        assert "TPC-C@SPARC64-V" in out

    def test_cpistack_keeps_full_and_sampled_runs_of_one_point(self, tmp_path, capsys):
        from repro.analysis.workloads import workload_by_name

        out = self._cpistack(
            tmp_path, capsys,
            workload_by_name("SPECint95", warm=2000, timed=1000),
            self._sampled("SPECint95"),
            workload_by_name("SPECint95", warm=2000, timed=1200),
        )
        assert "3 cached run(s)" in out
        rows = [line.split("  ")[0] for line in out.splitlines()]
        assert sorted(row for row in rows if row.startswith("SPECint95@")) == [
            "SPECint95@SPARC64-V", "SPECint95@SPARC64-V #2",
            "SPECint95@SPARC64-V (sampled)",
        ]


class TestServiceCommands:
    def test_submit_serve_status_roundtrip(self, tmp_path, capsys):
        queue = str(tmp_path / "q.jsonl")
        cache = str(tmp_path / "cache")
        main([
            "submit", "SPECint95", "--queue", queue, "--cache-dir", cache,
            "--warm", "2000", "--timed", "800", "--repeat", "3",
        ])
        out = capsys.readouterr().out
        assert "queued SPECint95@SPARC64-V" in out
        assert "3 submissions, single-flighted" in out
        assert "1 pending" in out

        main([
            "serve", "--queue", queue, "--cache-dir", cache,
            "--jobs", "1", "--quiet",
        ])
        out = capsys.readouterr().out
        assert "1 done" in out and "0 dead" in out
        assert "dedup 2" in out

        main(["status", "--queue", queue, "--cache-dir", cache])
        out = capsys.readouterr().out
        assert "done" in out and "stored" in out
        assert "SPECint95@SPARC64-V" in out

    def test_status_without_journal_fails_loudly(self, tmp_path):
        with pytest.raises(SystemExit, match="no queue journal"):
            main(["status", "--queue", str(tmp_path / "missing.jsonl")])

    def test_submit_unknown_workload_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["submit", "SPECweb", "--queue", str(tmp_path / "q.jsonl")])

    def test_serve_reports_dead_jobs_in_exit_code(self, tmp_path, capsys):
        from repro.common import faults

        queue = str(tmp_path / "q.jsonl")
        cache = str(tmp_path / "cache")
        main([
            "submit", "SPECint95", "--queue", queue, "--cache-dir", cache,
            "--warm", "2000", "--timed", "800",
        ])
        capsys.readouterr()
        try:
            with pytest.raises(SystemExit):
                main([
                    "serve", "--queue", queue, "--cache-dir", cache,
                    "--jobs", "1", "--quiet", "--retries", "0",
                    "--on-failure", "skip",
                    "--inject-faults", "worker-raise,times=100",
                ])
            err = capsys.readouterr().err
            assert "retry budget" in err
        finally:
            faults.install_spec(None)
            faults.reset()
