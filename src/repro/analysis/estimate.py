"""Statistical aggregation for sampled simulation.

SMARTS-style systematic sampling measures many short detailed windows
and treats each window's CPI (and each CPI-stack category's
cycles-per-instruction) as one observation.  Because the schedule gives
every window the same instruction count, the unweighted mean of
per-window CPIs equals the exact ratio estimator (total cycles over
total instructions), and the usual t-based confidence interval applies.
IPC bounds come from inverting the CPI interval — IPC is a reciprocal,
so its interval is the reciprocal of the CPI interval with the ends
swapped.

The module is dependency-free (no scipy): two-sided 95 % t quantiles
come from a small table up to 30 degrees of freedom and approach the
normal quantile beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.common.errors import SimulationError
from repro.observe.categories import CPI_CATEGORIES

#: Two-sided 95 % Student-t quantiles (P[|T| <= t] = 0.95) for df = 1..30.
_T_975 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def t_quantile_975(df: int) -> float:
    """97.5th-percentile Student-t quantile (two-sided 95 % intervals)."""
    if df < 1:
        raise SimulationError("t quantile needs at least one degree of freedom")
    if df <= len(_T_975):
        return _T_975[df - 1]
    if df <= 40:
        return 2.021
    if df <= 60:
        return 2.000
    if df <= 120:
        return 1.980
    return 1.960


@dataclass(frozen=True)
class Estimate:
    """A point estimate with a 95 % confidence interval."""

    mean: float
    lo: float
    hi: float
    stddev: float
    count: int

    @property
    def half_width(self) -> float:
        return (self.hi - self.lo) / 2.0

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def to_dict(self) -> Dict[str, float]:
        return {
            "mean": self.mean,
            "lo": self.lo,
            "hi": self.hi,
            "stddev": self.stddev,
            "n": self.count,
        }

    @staticmethod
    def from_samples(values: Sequence[float]) -> "Estimate":
        """t-based 95 % interval for the mean of ``values``."""
        n = len(values)
        if n == 0:
            raise SimulationError("cannot estimate from zero samples")
        mean = sum(values) / n
        if n == 1:
            return Estimate(mean=mean, lo=mean, hi=mean, stddev=0.0, count=1)
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        stddev = math.sqrt(variance)
        half = t_quantile_975(n - 1) * stddev / math.sqrt(n)
        return Estimate(mean=mean, lo=mean - half, hi=mean + half, stddev=stddev, count=n)

    def reciprocal(self) -> "Estimate":
        """Interval for 1/X given this interval for X (X bounded above 0)."""
        if self.mean <= 0:
            raise SimulationError("reciprocal needs a positive mean")
        lo = 1.0 / self.hi if self.hi > 0 else 0.0
        # A CPI interval straddling zero would invert to an unbounded IPC;
        # clamp to a finite (useless, but serialisable) bound.
        hi = 1.0 / self.lo if self.lo > 0 else 10.0 / self.mean
        return Estimate(
            mean=1.0 / self.mean, lo=lo, hi=hi, stddev=self.stddev, count=self.count
        )


def compute_estimates(measurements: Sequence[Dict]) -> Dict[str, Estimate]:
    """Point estimates with 95 % CIs for CPI, IPC and every stack category.

    ``measurements`` are the per-window counter dicts of
    :meth:`repro.core.pipeline.ProcessorCore.run_measured`.  Keys:
    ``"cpi"``, ``"ipc"``, and ``"cpi.<category>"`` for every CPI-stack
    category observed in any window.
    """
    if not measurements:
        raise SimulationError("cannot estimate from zero sample windows")
    for m in measurements:
        if m["instructions"] <= 0:
            raise SimulationError("sample window measured zero instructions")
    cpis = [m["cycles"] / m["instructions"] for m in measurements]
    cpi = Estimate.from_samples(cpis)
    out: Dict[str, Estimate] = {"cpi": cpi, "ipc": cpi.reciprocal()}

    observed = set()
    for m in measurements:
        observed.update(m["cpi_stack"])
    # Stable report order: canonical categories first, any others after.
    ordered = [c for c in CPI_CATEGORIES if c in observed]
    ordered += sorted(observed - set(CPI_CATEGORIES))
    for category in ordered:
        values = [
            m["cpi_stack"].get(category, 0) / m["instructions"] for m in measurements
        ]
        out[f"cpi.{category}"] = Estimate.from_samples(values)
    return out
