"""The claims ledger: every paper shape of §4 and Fig. 19, graded from one table.

Each :class:`Claim` row is one statement of the paper, with the paper's
number where the text gives one.  It names the figure of
:data:`~repro.analysis.figures.FIGURES` whose result it reads, reduces
that result to one number, and bounds the number with a PASS interval
and an optional WEAK one (right sign, magnitude off).  ``repro figures``
prints the verdicts under each table and exits 1 when the gate fails;
``benchmarks/test_figures.py`` asserts the same gate per figure.

A claim reading a point that the failure policy abandoned grades
``n/a``.  A claim with ``gap`` set is a shape the model is known not to
reproduce (EXPERIMENTS.md "Known gaps", by number): it is expected to
FAIL, and a PASS or WEAK fails the gate until the gap is retired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.report import format_table

PASS, WEAK, FAIL, NA = "PASS", "WEAK", "FAIL", "n/a"

SPEC = ("SPECint95", "SPECfp95", "SPECint2000", "SPECfp2000")


@dataclass(frozen=True)
class Interval:
    """A range of real numbers; either end may be open or absent."""

    lo: Optional[float] = None
    hi: Optional[float] = None
    lo_open: bool = False
    hi_open: bool = False

    def __contains__(self, value: float) -> bool:
        if self.lo is not None and (value <= self.lo if self.lo_open else value < self.lo):
            return False
        return self.hi is None or (value < self.hi if self.hi_open else value <= self.hi)

    def __str__(self) -> str:
        if self.hi is None:
            return f"{'>' if self.lo_open else '>='} {self.lo:g}"
        if self.lo is None:
            return f"{'<' if self.hi_open else '<='} {self.hi:g}"
        return (
            f"{'(' if self.lo_open else '['}{self.lo:g}, "
            f"{self.hi:g}{')' if self.hi_open else ']'}"
        )


def above(x: float) -> Interval:
    return Interval(lo=x, lo_open=True)


def at_least(x: float) -> Interval:
    return Interval(lo=x)


def below(x: float) -> Interval:
    return Interval(hi=x, hi_open=True)


def at_most(x: float) -> Interval:
    return Interval(hi=x)


class Abandoned(Exception):
    """A point a claim reads was abandoned by the failure policy."""


@dataclass(frozen=True)
class Claim:
    """One paper statement and the interval its measured value must hit."""

    id: str
    figure: str
    statement: str
    measure: Callable[[Any], float]
    passes: Interval
    weak: Optional[Interval] = None
    gap: Optional[int] = None
    fmt: str = "{:.3f}"


@dataclass(frozen=True)
class Verdict:
    """One claim's grade and the value it was graded on (``None``: n/a)."""

    claim: Claim
    grade: str
    value: Optional[float]

    @property
    def gates(self) -> bool:
        """True when this verdict fails the gate: a FAIL, or a gap claim
        that no longer fails."""
        if self.claim.gap is None:
            return self.grade == FAIL
        return self.grade in (PASS, WEAK)


# ---------------------------------------------------------------------------
# Readers: a figure result's value, or Abandoned for an ``n/a`` point.
# ---------------------------------------------------------------------------


def _at(values: Mapping[str, Optional[float]], name: str) -> float:
    value = values[name]
    if value is None:
        raise Abandoned(name)
    return value


def _every(values: Mapping[str, Optional[float]]) -> List[float]:
    return [_at(values, name) for name in values]


def _shares(result) -> Dict[str, Any]:
    """Figure 7's breakdowns by workload; every workload must be present."""
    if result.missing:
        raise Abandoned(result.missing[0])
    return {item.trace_name: item for item in result.breakdowns}


def _increase(result, name: str) -> float:
    """Figure 10's relative failure increase of the 4K BHT for ``name``."""
    big = _at(result.mispredict_16k, name)
    small = _at(result.mispredict_4k, name)
    return (small - big) / big if big else 0.0


def _smp_row(result) -> Dict[str, Optional[float]]:
    """Figure 14's TPC-C (NP) row, whatever the CPU count."""
    [name] = [name for name in result.ipc_ratios if name.startswith("TPC-C (")]
    return result.ipc_ratios[name]


def _growth(small: Mapping, big: Mapping) -> float:
    """TPC-C's miss ratio with the 32 KB L1 over the 128 KB one."""
    return _at(small, "TPC-C") / max(_at(big, "TPC-C"), 1e-9)


def _lead(ratios: Mapping, best: Sequence[str], rest: Sequence[str]) -> float:
    """How far the best of ``best`` leads the best of ``rest``."""
    return max(_at(ratios, n) for n in best) - max(_at(ratios, n) for n in rest)


def _drop(result, early: str, late: str) -> float:
    """Figure 19's smallest estimate drop from version ``early`` to ``late``."""
    return min(_at(row, early) - _at(row, late) for row in result.versions.values())


# ---------------------------------------------------------------------------
# The ledger.  Where an earlier scorecard and a figure benchmark bounded
# the same statement differently, the FAIL line is the stricter of the two.
# ---------------------------------------------------------------------------

CLAIMS: Tuple[Claim, ...] = (
    Claim("fig07.specint95-branch", "7",
          "SPECint95 spends ~30% of its time on branch stalls (paper 30%)",
          lambda r: _shares(r)["SPECint95"].branch,
          Interval(0.15, 0.45, lo_open=True)),
    Claim("fig07.specint95-sx-small", "7",
          "SPECint95's cache-hit ratios are high: little sx (L2-miss) time",
          lambda r: _shares(r)["SPECint95"].sx, below(0.10)),
    Claim("fig07.specfp95-core", "7",
          "SPECfp95 is core-execution heavy (paper 74% core)",
          lambda r: _shares(r)["SPECfp95"].core, at_least(0.55), above(0.30)),
    Claim("fig07.specfp95-core-above-tpcc", "7",
          "SPECfp95 is more core-bound than TPC-C (core share difference)",
          lambda r: _shares(r)["SPECfp95"].core - _shares(r)["TPC-C"].core,
          above(0.0)),
    Claim("fig07.specfp95-branch-small", "7",
          "SPECfp95's branches are predictable: little branch-stall time",
          lambda r: _shares(r)["SPECfp95"].branch, below(0.05)),
    Claim("fig07.tpcc-sx", "7",
          "TPC-C loses a large share to sx (L2-miss) stalls (paper 35%)",
          lambda r: _shares(r)["TPC-C"].sx, Interval(0.20, 0.60), above(0.12)),
    Claim("fig07.tpcc-sx-above-specint95", "7",
          "the L2 is the key to TPC-C, not SPECint (sx share difference)",
          lambda r: _shares(r)["TPC-C"].sx - _shares(r)["SPECint95"].sx,
          above(0.0)),
    Claim("fig07.breakdowns-sum-to-one", "7",
          "each breakdown's four fractions sum to 1 (largest |sum - 1|)",
          lambda r: max(
              abs(b.core + b.branch + b.ibs_tlb + b.sx - 1.0)
              for b in _shares(r).values()
          ),
          below(1e-6), fmt="{:.1e}"),
    Claim("fig08.no-workload-slower", "8",
          "every workload benefits from 4-way issue (lowest 4-way/2-way IPC)",
          lambda r: min(_every(r.ratios)), at_least(0.99)),
    Claim("fig08.specint-gains-most", "8",
          "SPECint gains most from 4-way issue (lead over the rest)",
          lambda r: _lead(
              r.ratios, ("SPECint95", "SPECint2000"),
              ("SPECfp95", "SPECfp2000", "TPC-C"),
          ),
          above(0.0)),
    Claim("fig08.specint-gain-material", "8",
          "4-way issue is materially faster for SPECint (best IPC ratio)",
          lambda r: max(_at(r.ratios, "SPECint95"), _at(r.ratios, "SPECint2000")),
          above(1.05)),
    Claim("fig09.tpcc-ipc-penalty", "9",
          "the 4K BHT costs TPC-C IPC (paper IPC(4k)/IPC(16k) 0.944)",
          lambda r: _at(r.ipc_ratio.ratios, "TPC-C"), below(1.0), gap=1),
    Claim("fig09.spec-ipc-benefit", "9",
          "SPEC benefits slightly from the faster 4K BHT (lowest IPC(4k)/IPC(16k))",
          lambda r: min(_at(r.ipc_ratio.ratios, n) for n in SPEC), at_least(1.0)),
    Claim("fig10.tpcc-bht-failures", "9",
          "TPC-C's prediction failures rise with the 4K BHT (paper +60%)",
          lambda r: _increase(r, "TPC-C"), at_least(0.30), above(0.05)),
    Claim("fig10.spec-no-bht-difference", "9",
          "SPEC shows no BHT-size failure difference (largest |4k - 16k|)",
          lambda r: max(
              abs(_at(r.mispredict_4k, n) - _at(r.mispredict_16k, n)) for n in SPEC
          ),
          below(0.01)),
    Claim("fig10.tpcc-most-bht-sensitive", "9",
          "TPC-C is the most BHT-capacity-sensitive workload (lead in increase)",
          lambda r: _increase(r, "TPC-C") - max(_increase(r, n) for n in SPEC),
          at_least(-1e-9)),
    Claim("fig11.tpcc-ipc-cost", "11",
          "the 32 KB L1 costs TPC-C IPC (paper IPC(32k)/IPC(128k) 0.980)",
          lambda r: _at(r.ipc_ratio.ratios, "TPC-C"), below(1.0)),
    Claim("fig12.tpcc-imiss-growth", "11",
          "TPC-C's I-miss ratio grows with the 32 KB L1 (paper x1.99)",
          lambda r: _growth(r.imiss_32k, r.imiss_128k),
          Interval(1.5, 4.0), above(1.3)),
    Claim("fig12.tpcc-more-i-sensitive", "11",
          "TPC-C's I-miss grows more than SPECint95's (difference of increases)",
          lambda r: (
              _at(r.imiss_32k, "TPC-C") - _at(r.imiss_128k, "TPC-C")
              - _at(r.imiss_32k, "SPECint95") + _at(r.imiss_128k, "SPECint95")
          ),
          above(0.0)),
    Claim("fig13.tpcc-dmiss-growth", "11",
          "TPC-C's D-miss ratio grows with the 32 KB L1 (paper x1.64)",
          lambda r: _growth(r.dmiss_32k, r.dmiss_128k),
          Interval(1.3, 3.5), above(1.2)),
    Claim("fig14.tpcc-8m1w-no-advantage", "14",
          "off.8m-1w offers no advantage on TPC-C (paper IPC ratio 0.86)",
          lambda r: _at(r.ipc_ratios["TPC-C"], "off.8m-1w"), below(1.0)),
    Claim("fig14.tpcc-associativity", "14",
          "associativity matters off-chip: TPC-C off.8m-2w minus off.8m-1w IPC",
          lambda r: (
              _at(r.ipc_ratios["TPC-C"], "off.8m-2w")
              - _at(r.ipc_ratios["TPC-C"], "off.8m-1w")
          ),
          at_least(0.0)),
    Claim("fig14.tpcc-8m2w-gain", "14",
          "off.8m-2w gives TPC-C a slight IPC increase (paper: slight)",
          lambda r: _at(r.ipc_ratios["TPC-C"], "off.8m-2w"), above(1.0)),
    Claim("fig14.tpcc-smp-8m1w-no-advantage", "14",
          "off.8m-1w offers no advantage on TPC-C (16P) (paper IPC ratio 0.876)",
          lambda r: _at(_smp_row(r), "off.8m-1w"), below(1.02)),
    Claim("fig15.tpcc-8m-misses-less", "14",
          "the 8 MB off-chip L2 misses less on TPC-C (on.2m-4w minus off.8m-2w)",
          lambda r: (
              _at(r.miss_ratios["TPC-C"], "on.2m-4w")
              - _at(r.miss_ratios["TPC-C"], "off.8m-2w")
          ),
          at_least(-1e-9)),
    Claim("fig16.prefetch-never-hurts", "16",
          "prefetching never hurts (lowest IPC(with)/IPC(without))",
          lambda r: min(_every(r.ipc_ratio.ratios)), at_least(0.97)),
    Claim("fig16.specfp-gain", "16",
          "SPECfp gains more than 13% IPC from prefetching (paper >13%)",
          lambda r: max(
              _at(r.ipc_ratio.ratios, "SPECfp95"), _at(r.ipc_ratio.ratios, "SPECfp2000")
          ) - 1.0,
          above(0.13), above(0.05), fmt="{:+.1%}"),
    Claim("fig16.specfp-gains-most", "16",
          "SPECfp gains most from prefetching (lead over SPECint95 and TPC-C)",
          lambda r: _lead(
              r.ipc_ratio.ratios, ("SPECfp95", "SPECfp2000"), ("SPECint95", "TPC-C")
          ),
          at_least(0.0)),
    Claim("fig17.specfp-demand-misses-fall", "16",
          "prefetching cuts SPECfp demand L2 misses (smallest without - with-Demand)",
          lambda r: min(
              _at(r.miss_without, n) - _at(r.miss_with_demand, n)
              for n in ("SPECfp95", "SPECfp2000")
          ),
          above(0.0)),
    Claim("fig17.specfp-useless-prefetches", "16",
          "unnecessary prefetches show as the with/with-Demand L2 miss gap (smallest)",
          lambda r: min(
              _at(r.miss_with, n) - _at(r.miss_with_demand, n)
              for n in ("SPECfp95", "SPECfp2000")
          ),
          above(0.0)),
    Claim("fig18.2rs-not-faster", "18",
          "2RS never out-runs 1RS (highest IPC(2RS)/IPC(1RS))",
          lambda r: max(_every(r.ratios)), at_most(1.02)),
    Claim("fig18.2rs-loss-slight", "18",
          "2RS loses only slightly against 1RS (lowest IPC(2RS)/IPC(1RS))",
          lambda r: min(_every(r.ratios)), at_least(0.90)),
    Claim("fig19.v1-optimistic", "19",
          "v1 (latency-only memory model) over-estimates performance (smallest v1 - v8)",
          lambda r: _drop(r, "v1", "v8"), at_least(-0.01)),
    Claim("fig19.estimates-decline", "19",
          "estimates decrease from v1 to v4 as rigidity improves (smallest step down)",
          lambda r: min(_drop(r, f"v{k}", f"v{k + 1}") for k in (1, 2, 3)),
          at_least(-0.01)),
    Claim("fig19.v5-bump", "19",
          "the exception at v5: modelling special instructions in detail (smallest v5 - v4)",
          lambda r: _drop(r, "v5", "v4"), at_least(-0.005)),
    Claim("fig19.int2000-final-error", "19",
          "the final model's SPECint2000 |error| against the machine (paper 4.2%)",
          lambda r: abs(_at(r.errors["SPECint2000"], "final")), below(0.08), fmt="{:.1%}"),
    Claim("fig19.fp2000-final-error", "19",
          "the final model's SPECfp2000 |error| against the machine (paper 3.9%)",
          lambda r: abs(_at(r.errors["SPECfp2000"], "final")), below(0.08), gap=6,
          fmt="{:.1%}"),
    Claim("fig19.final-no-worse", "19",
          "the final model is as accurate as the earlier phases (largest final - worst |error|)",
          lambda r: max(
              abs(_at(row, "final")) - max(abs(_at(row, p)) for p in row if p != "final")
              for row in r.errors.values()
          ),
          at_most(0.02)),
)

CLAIMS_BY_ID: Dict[str, Claim] = {claim.id: claim for claim in CLAIMS}


def _verdict(claim: Claim, result) -> Verdict:
    try:
        value = claim.measure(result)
    except Abandoned:
        return Verdict(claim, NA, None)
    if value in claim.passes:
        return Verdict(claim, PASS, value)
    if claim.weak is not None and value in claim.weak:
        return Verdict(claim, WEAK, value)
    return Verdict(claim, FAIL, value)


def grade(key: str, result) -> str:
    """PASS, WEAK, FAIL or ``n/a`` for claim ``key`` on its figure's result."""
    return _verdict(CLAIMS_BY_ID[key], result).grade


def grade_figure(figure: str, result) -> List[Verdict]:
    """Every claim on ``figure``, graded against its result."""
    return [_verdict(claim, result) for claim in CLAIMS if claim.figure == figure]


def format_verdicts(verdicts: Sequence[Verdict]) -> str:
    rows = [
        (
            v.claim.id,
            v.grade if v.claim.gap is None else f"{v.grade} (gap {v.claim.gap})",
            NA if v.value is None else v.claim.fmt.format(v.value),
            v.claim.passes,
            v.claim.weak or "-",
            v.claim.statement,
        )
        for v in verdicts
    ]
    return format_table(["claim", "verdict", "measured", "pass", "weak", "paper"], rows)


def tally(verdicts: Sequence[Verdict]) -> str:
    """``N PASS, N WEAK, N FAIL``, plus ``N n/a`` when a point was abandoned."""
    counts = {g: sum(v.grade == g for v in verdicts) for g in (PASS, WEAK, FAIL, NA)}
    line = f"{counts[PASS]} PASS, {counts[WEAK]} WEAK, {counts[FAIL]} FAIL"
    return line + (f", {counts[NA]} n/a" if counts[NA] else "")
