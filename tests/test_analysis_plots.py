"""Tests for text rendering (bar charts, CSV) and trace comparison."""

import pytest

from repro.analysis.plots import (
    bar_chart,
    breakdown_csv,
    grouped_bar_chart,
    ipc_ratio_csv,
    stacked_breakdown_chart,
    to_csv,
)
from repro.trace.compare import compare_traces
from repro.trace.record import make_alu, make_load
from repro.trace.stream import Trace


class TestBarCharts:
    def test_bar_lengths_proportional(self):
        text = bar_chart({"a": 1.0, "b": 2.0}, width=20)
        line_a, line_b = text.splitlines()
        assert line_b.count("█") == 2 * line_a.count("█")

    def test_title_and_values(self):
        text = bar_chart({"x": 0.5}, title="T", unit="%")
        assert text.startswith("T")
        assert "0.5%" in text

    def test_baseline_marker(self):
        text = bar_chart({"a": 0.5}, width=20, baseline=1.0)
        assert "|" in text

    def test_empty_series(self):
        assert bar_chart({}, title="empty") == "empty"

    def test_grouped(self):
        text = grouped_bar_chart(
            {"w1": {"cfg1": 1.0, "cfg2": 0.5}, "w2": {"cfg1": 0.8}}
        )
        assert "w1:" in text and "cfg2" in text

    def test_stacked_sums(self):
        text = stacked_breakdown_chart(
            {"w": {"core": 0.5, "sx": 0.5}}, order=["core", "sx"], width=10
        )
        # Legend plus one row.
        assert "core" in text
        row = text.splitlines()[-1]
        assert len(row.split()[-1]) == 10


class TestCsv:
    def test_roundtrip_fields(self):
        text = to_csv([{"a": 1, "b": 2}], ["a", "b"])
        assert text.splitlines()[0] == "a,b"
        assert text.splitlines()[1] == "1,2"

    def test_empty(self):
        assert to_csv([]) == ""

    def test_figure_exports(self):
        from repro.analysis.figures import Fig07Result, IpcRatioResult
        from repro.model.perfect import StallBreakdown

        ratio = IpcRatioResult("t", "base", "alt", {"w": 1.05})
        assert "w,1.05" in ipc_ratio_csv(ratio)
        breakdown = Fig07Result(
            [StallBreakdown("w", 100, 0.5, 0.2, 0.2, 0.1)]
        )
        text = breakdown_csv(breakdown)
        assert "workload,core,branch,ibs_tlb,sx" in text

    def test_ipc_ratio_csv_marks_abandoned_points(self):
        from repro.analysis.figures import IpcRatioResult

        ratio = IpcRatioResult("t", "a", "b", {"SPECint95": 1.0, "TPC-C": None})
        assert ipc_ratio_csv(ratio).splitlines() == [
            "workload,ratio,baseline,alternative",
            "SPECint95,1.0000,a,b",
            "TPC-C,n/a,a,b",
        ]

    def test_breakdown_csv_keeps_missing_workloads(self):
        from repro.analysis.figures import Fig07Result
        from repro.model.perfect import StallBreakdown

        breakdown = Fig07Result(
            [StallBreakdown("SPECint95", 100, 0.5, 0.2, 0.2, 0.1)], missing=["TPC-C"]
        )
        assert breakdown_csv(breakdown).splitlines() == [
            "workload,core,branch,ibs_tlb,sx",
            "SPECint95,0.5000,0.2000,0.2000,0.1000",
            "TPC-C,n/a,n/a,n/a,n/a",
        ]


class TestCompareTraces:
    def make(self, n, offset=0):
        records = []
        pc = 0x1000
        for i in range(n):
            records.append(make_load(pc, dest=8, addr_srcs=(1,), ea=0x9000 + 8 * (i + offset)))
            pc += 4
        return Trace(records)

    def test_identical(self):
        a = self.make(10)
        b = self.make(10)
        comparison = compare_traces(a, b)
        assert comparison.identical
        assert comparison.record_match_fraction == 1.0
        assert comparison.code_overlap == 1.0

    def test_divergence_detected(self):
        a = self.make(10)
        b = self.make(10, offset=5)
        comparison = compare_traces(a, b)
        assert not comparison.identical
        assert comparison.first_divergence == 0
        assert comparison.opcode_match_fraction == 1.0  # same classes

    def test_length_mismatch(self):
        comparison = compare_traces(self.make(10), self.make(5))
        assert comparison.length_a == 10 and comparison.length_b == 5
        assert not comparison.identical

    def test_mix_distance_zero_for_same_mix(self):
        comparison = compare_traces(self.make(10), self.make(10, offset=3))
        assert comparison.mix_distance == pytest.approx(0.0)

    def test_empty_traces(self):
        comparison = compare_traces(Trace([]), Trace([]))
        assert comparison.identical

    def test_as_dict(self):
        data = compare_traces(self.make(3), self.make(3)).as_dict()
        assert data["record_match_fraction"] == 1.0


class TestScorecard:
    def test_scorecard_grading(self):
        from repro.analysis.regress import Scorecard

        card = Scorecard()
        card.add("F", "passes", 1.0, lambda v: v > 0.5)
        card.add("F", "weak", 0.4, lambda v: v > 0.5, weak_when=lambda v: v > 0.3)
        card.add("F", "fails", 0.1, lambda v: v > 0.5)
        verdicts = [claim.verdict for claim in card.claims]
        assert verdicts == ["PASS", "WEAK", "FAIL"]
        assert len(card.failed) == 1
        text = card.format_table()
        assert "1 PASS, 1 WEAK, 1 FAIL" in text
