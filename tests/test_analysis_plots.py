"""Tests for text rendering, trace comparison and the claims ledger."""

import pytest

from repro.analysis.plots import stacked_breakdown_chart
from repro.trace.compare import compare_traces
from repro.trace.record import make_load
from repro.trace.stream import Trace


class TestBarCharts:
    def test_stacked_sums(self):
        text = stacked_breakdown_chart(
            {"w": {"core": 0.5, "sx": 0.5}}, order=["core", "sx"], width=10
        )
        # Legend plus one row.
        assert "core" in text
        row = text.splitlines()[-1]
        assert len(row.split()[-1]) == 10


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


NAMES = ["SPECint95", "SPECfp95", "SPECint2000", "SPECfp2000", "TPC-C"]

#: §3 technique -> the workload ``sec3_ablations`` measures it on.
TECHNIQUES = {
    "speculative dispatch": "SPECint95",
    "data forwarding": "SPECint95",
    "dual L1D port": "TPC-C",
    "8x4 B banking": "TPC-C",
    "non-blocking caches": "TPC-C",
}


def _ratios(value, **overrides):
    from repro.analysis.figures import IpcRatioResult

    return IpcRatioResult("t", "base", "alt", {**dict.fromkeys(NAMES, value), **overrides})


def _ablations(value):
    from repro.analysis.figures import AblationResult

    return AblationResult(dict(TECHNIQUES), dict.fromkeys(TECHNIQUES, value))


def _results(value):
    """One hand-built result per claimed figure with every point at
    ``value``; ``None`` marks every point abandoned."""
    from repro.analysis.figures import (
        AccuracyResult,
        BhtStudyResult,
        Fig07Result,
        L1StudyResult,
        L2StudyResult,
        PrefetchStudyResult,
    )
    from repro.model.perfect import StallBreakdown
    from repro.verify.fidelity import MODEL_VERSIONS

    column = dict.fromkeys(NAMES, value)
    l2_rows = {
        name: dict.fromkeys(["on.2m-4w", "off.8m-2w", "off.8m-1w"], value)
        for name in NAMES + ["TPC-C (16P)"]
    }
    if value is None:
        fig07 = Fig07Result([], missing=list(NAMES))
    else:
        fig07 = Fig07Result([StallBreakdown(n, 100, 0.4, 0.3, 0.2, 0.1) for n in NAMES])
    return {
        "7": fig07,
        "8": _ratios(value),
        "9": BhtStudyResult(_ratios(value), dict(column), dict(column)),
        "11": L1StudyResult(_ratios(value), *(dict(column) for _ in range(4))),
        "14": L2StudyResult(l2_rows, l2_rows),
        "16": PrefetchStudyResult(_ratios(value), *(dict(column) for _ in range(3))),
        "18": _ratios(value),
        "19": AccuracyResult(
            {n: dict.fromkeys(MODEL_VERSIONS, value) for n in ("SPECint2000", "SPECfp2000")},
            {
                n: dict.fromkeys(["phaseA", "phaseB", "phaseC", "final"], value)
                for n in ("SPECint2000", "SPECfp2000")
            },
        ),
        "ablations": _ablations(value),
    }


class TestClaimsLedger:
    def test_ids_unique(self):
        from repro.analysis.claims import CLAIMS

        ids = [claim.id for claim in CLAIMS]
        assert len(ids) == len(set(ids))

    def test_every_figure_key_registered(self):
        from repro.analysis.claims import CLAIMS
        from repro.analysis.figures import FIGURES

        assert {claim.figure for claim in CLAIMS} <= set(FIGURES)

    def test_every_claim_measures_a_complete_result(self):
        from repro.analysis.claims import CLAIMS, FAIL, PASS, WEAK, grade

        results = _results(1.0)
        for claim in CLAIMS:
            assert grade(claim.id, results[claim.figure]) in (PASS, WEAK, FAIL)

    def test_abandoned_points_grade_na(self):
        from repro.analysis.claims import CLAIMS, NA, grade

        results = _results(None)
        assert all(grade(c.id, results[c.figure]) == NA for c in CLAIMS)

    def test_grades_come_from_the_intervals(self):
        from repro.analysis.claims import grade
        from repro.analysis.figures import BhtStudyResult

        def tpcc_failures(small):
            return BhtStudyResult(_ratios(1.0), {"TPC-C": 0.10}, {"TPC-C": small})

        # PASS at >= +30%, WEAK above +5%, FAIL below; None is abandoned.
        verdicts = [
            grade("fig10.tpcc-bht-failures", tpcc_failures(small))
            for small in (0.14, 0.11, 0.104, None)
        ]
        assert verdicts == ["PASS", "WEAK", "FAIL", "n/a"]

    def test_interval_ends(self):
        from repro.analysis.claims import Interval, above, at_least, at_most, below

        assert 0.05 not in above(0.05) and 0.05 in at_least(0.05)
        assert 1.02 in at_most(1.02) and 1.0 not in below(1.0)
        closed_open = Interval(0.15, 0.45, lo_open=True)
        assert 0.15 not in closed_open and 0.45 in closed_open
        assert [str(i) for i in (above(0.05), at_most(1.02), closed_open)] == [
            "> 0.05", "<= 1.02", "(0.15, 0.45]",
        ]

    def test_sec3_claims_grade_at_the_interval_ends(self):
        from repro.analysis.claims import grade_figure

        def grades(value):
            return {v.claim.id: v.grade for v in grade_figure("ablations", _ablations(value))}

        # No change at all passes every claim but forwarding's strict one,
        # and banking is the one technique expected to cost IPC.
        assert grades(1.0) == {
            "sec3.speculative-dispatch": "PASS",
            "sec3.data-forwarding": "FAIL",
            "sec3.dual-operand-access": "PASS",
            "sec3.banking-cost": "PASS",
            "sec3.non-blocking-caches": "PASS",
        }
        assert grades(1.001) == {**grades(1.0), "sec3.data-forwarding": "PASS",
                                 "sec3.banking-cost": "FAIL"}
        assert grades(0.999) == {**dict.fromkeys(grades(1.0), "FAIL"),
                                 "sec3.banking-cost": "PASS"}

    def test_gap_claim_gates_only_when_it_stops_failing(self):
        from repro.analysis.claims import CLAIMS_BY_ID, grade_figure
        from repro.analysis.figures import BhtStudyResult

        assert CLAIMS_BY_ID["fig09.tpcc-ipc-penalty"].gap == 1

        def penalty(ratio):
            misses = dict.fromkeys(NAMES, 0.1)
            result = BhtStudyResult(_ratios(1.0, **{"TPC-C": ratio}), misses, misses)
            [verdict] = [
                v for v in grade_figure("9", result) if v.claim.id == "fig09.tpcc-ipc-penalty"
            ]
            return verdict.grade, verdict.gates

        assert penalty(1.01) == ("FAIL", False)
        assert penalty(0.94) == ("PASS", True)

    def test_tally_and_gate(self):
        from repro.analysis.claims import format_verdicts, grade_figure, tally

        verdicts = grade_figure("18", _ratios(0.95, **{"TPC-C": 1.05}))
        assert tally(verdicts) == "1 PASS, 0 WEAK, 1 FAIL"
        assert [v.claim.id for v in verdicts if v.gates] == ["fig18.2rs-not-faster"]
        assert "fig18.2rs-loss-slight" in format_verdicts(verdicts)
        assert tally(grade_figure("18", _ratios(None))) == "0 PASS, 0 WEAK, 0 FAIL, 2 n/a"
