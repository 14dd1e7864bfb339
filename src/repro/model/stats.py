"""Aggregated simulation results."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.core.pipeline import CoreStats
from repro.memory.cache import CacheStats


@dataclass
class SimResult:
    """Everything measured by one performance-model run."""

    config_name: str
    trace_name: str
    core: CoreStats
    l1i: Dict[str, float] = field(default_factory=dict)
    l1d: Dict[str, float] = field(default_factory=dict)
    l2: Dict[str, float] = field(default_factory=dict)
    itlb_miss_ratio: float = 0.0
    dtlb_miss_ratio: float = 0.0
    bht_misprediction_ratio: float = 0.0
    system_bus_utilization: float = 0.0
    l1_l2_bus_utilization: float = 0.0
    prefetches_issued: int = 0
    #: Wall-clock simulation speed, trace instructions per host second.
    sim_speed: float = 0.0
    warmup_instructions: int = 0

    @classmethod
    def from_counts(
        cls, config_name: str, trace_name: str, counts: Dict[str, object], **extra
    ) -> "SimResult":
        """The result of a :meth:`ProcessorCore.snapshot`-shaped dict.

        The one builder every result goes through: a full run passes its
        final snapshot, an SMP run each CPU's, a sampled run the sum of
        its windows' measured differences.  ``extra`` sets the remaining
        fields (``sim_speed``, ``warmup_instructions``, sampling data).
        """
        core = CoreStats.from_counts(counts)
        cycles = core.cycles

        def ratio(part: int, whole: int) -> float:
            return part / whole if whole > 0 else 0.0

        return cls(
            config_name=config_name,
            trace_name=trace_name,
            core=core,
            l1i=CacheStats(**counts["l1i"]).as_dict(),
            l1d=CacheStats(**counts["l1d"]).as_dict(),
            l2=CacheStats(**counts["l2"]).as_dict(),
            itlb_miss_ratio=ratio(counts["itlb"]["misses"], counts["itlb"]["accesses"]),
            dtlb_miss_ratio=ratio(counts["dtlb"]["misses"], counts["dtlb"]["accesses"]),
            bht_misprediction_ratio=core.misprediction_ratio,
            system_bus_utilization=min(1.0, ratio(counts["system_bus_busy"], cycles)),
            l1_l2_bus_utilization=min(1.0, ratio(counts["l1_l2_bus_busy"], cycles)),
            prefetches_issued=counts["prefetches_issued"],
            **extra,
        )

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.core.ipc

    @property
    def cycles(self) -> int:
        return self.core.cycles

    @property
    def instructions(self) -> int:
        return self.core.instructions

    def miss_ratio(self, cache: str, demand_only: bool = True) -> float:
        """Demand (or total) miss ratio of "l1i"/"l1d"/"l2"."""
        stats = getattr(self, cache)
        key = "demand_miss_ratio" if demand_only else "total_miss_ratio"
        return float(stats.get(key, 0.0))

    def as_dict(self, include_speed: bool = True) -> Dict[str, object]:
        """Rounded summary; ``include_speed=False`` drops the one
        wall-clock-dependent field, leaving only deterministic
        architectural statistics (what the determinism tests compare)."""
        data = self._as_dict()
        if not include_speed:
            data.pop("sim_speed_ips")
        return data

    def _as_dict(self) -> Dict[str, object]:
        return {
            "config": self.config_name,
            "trace": self.trace_name,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "ipc": round(self.ipc, 4),
            "l1i_miss_ratio": round(self.miss_ratio("l1i"), 5),
            "l1d_miss_ratio": round(self.miss_ratio("l1d"), 5),
            "l2_miss_ratio": round(self.miss_ratio("l2"), 5),
            "bht_misprediction_ratio": round(self.bht_misprediction_ratio, 5),
            "itlb_miss_ratio": round(self.itlb_miss_ratio, 5),
            "dtlb_miss_ratio": round(self.dtlb_miss_ratio, 5),
            "replays": self.core.replays,
            "bank_conflicts": self.core.bank_conflicts,
            "store_forwards": self.core.store_forwards,
            "system_bus_utilization": round(self.system_bus_utilization, 4),
            "sim_speed_ips": round(self.sim_speed, 1),
        }

    def summary(self) -> str:
        """One-screen human-readable report."""
        data = self.as_dict()
        width = max(len(key) for key in data)
        return "\n".join(f"{key:<{width}}  {value}" for key, value in data.items())

    def metrics(self) -> Dict[str, object]:
        """Flat ``{name: value}`` view via the metrics registry.

        Every consumer (runner, figures, ``repro analyze``) reads results
        through this one contract; see :mod:`repro.observe.registry`.
        """
        from repro.observe.registry import collect

        return collect(self)

    def cpi_stack_report(self) -> str:
        """The CPI stack rendered as aligned text (empty string if absent)."""
        from repro.observe.cpistack import render_stack

        if not self.core.cpi_stack:
            return ""
        return render_stack(self.core.cpi_stack, self.core.cycles)

    def to_dict(self) -> Dict[str, object]:
        """Full lossless serialisation (inverse of :meth:`from_dict`).

        Unlike :meth:`as_dict` — a rounded human-facing summary — this
        preserves every field exactly, so a result can round-trip
        through JSON (e.g. the on-disk experiment cache) and report the
        same ``ipc``/``cycles``/``miss_ratio`` values as the original.
        """
        payload = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "core"
        }
        payload["core"] = asdict(self.core)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SimResult":
        """Rebuild a result serialised by :meth:`to_dict`."""
        data = dict(payload)
        core_data = dict(data.pop("core"))
        core = CoreStats(**core_data)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SimResult fields: {sorted(unknown)}")
        return cls(core=core, **data)


@dataclass
class SampledSimResult(SimResult):
    """A :class:`SimResult` produced by SMARTS-style sampled simulation.

    ``core`` and the cache/TLB/bus fields hold the *measured* totals
    summed over every detailed window (so all SimResult consumers — the
    metrics registry, figures, sweeps — work unchanged), while
    ``estimates`` carries the statistical view: a 95 % confidence
    interval for IPC, CPI and every CPI-stack category, keyed ``"ipc"``,
    ``"cpi"`` and ``"cpi.<category>"`` (see
    :mod:`repro.analysis.estimate`).  ``sampling`` records the schedule
    (period/length/warmup), the window count, and the
    detailed-instruction budget versus the full trace length.  The
    per-window vectors exist for diagnostics: when a validation check
    fails, the per-window distribution is what explains why.
    """

    sampling: Dict[str, object] = field(default_factory=dict)
    estimates: Dict[str, Dict[str, float]] = field(default_factory=dict)
    window_instructions: List[int] = field(default_factory=list)
    window_cycles: List[int] = field(default_factory=list)
    window_stacks: List[Dict[str, int]] = field(default_factory=list)

    @property
    def window_count(self) -> int:
        return len(self.window_cycles)

    @property
    def detailed_instructions(self) -> int:
        return int(self.sampling.get("detailed_instructions", 0))

    @property
    def trace_instructions(self) -> int:
        return int(self.sampling.get("trace_instructions", 0))

    @property
    def detail_reduction(self) -> float:
        """How many× fewer instructions ran in detail than the trace holds."""
        if self.detailed_instructions == 0:
            return 0.0
        return self.trace_instructions / self.detailed_instructions

    @property
    def window_ipcs(self) -> List[float]:
        return [
            insts / cycles
            for insts, cycles in zip(self.window_instructions, self.window_cycles)
            if cycles
        ]

    def estimate(self, metric: str) -> Optional[Dict[str, float]]:
        """The ``{mean, lo, hi, stddev, n}`` dict for one metric, if any."""
        return self.estimates.get(metric)

    @property
    def ipc_interval(self) -> Tuple[float, float]:
        est = self.estimates.get("ipc")
        if not est:
            return (self.ipc, self.ipc)
        return (est["lo"], est["hi"])

    @property
    def ipc_half_width(self) -> float:
        lo, hi = self.ipc_interval
        return (hi - lo) / 2.0

    def _as_dict(self) -> Dict[str, object]:
        data = super()._as_dict()
        data["sampled_windows"] = self.window_count
        data["detailed_instructions"] = self.detailed_instructions
        data["detail_reduction"] = round(self.detail_reduction, 1)
        est = self.estimates.get("ipc")
        if est:
            data["ipc_ci95"] = f"[{est['lo']:.4f}, {est['hi']:.4f}]"
        return data

    def estimates_report(self) -> str:
        """The confidence intervals rendered as aligned text."""
        if not self.estimates:
            return ""
        rows = []
        for name, est in self.estimates.items():
            mean = est["mean"]
            half = (est["hi"] - est["lo"]) / 2.0
            rel = f"±{100.0 * half / mean:.1f}%" if mean else "±n/a"
            rows.append((name, f"{mean:.4f}", f"[{est['lo']:.4f}, {est['hi']:.4f}]", rel))
        name_w = max(len(r[0]) for r in rows)
        mean_w = max(len(r[1]) for r in rows)
        ci_w = max(len(r[2]) for r in rows)
        lines = [
            f"{name:<{name_w}}  {mean:>{mean_w}}  {ci:<{ci_w}}  {rel}"
            for name, mean, ci, rel in rows
        ]
        header = f"{'metric':<{name_w}}  {'mean':>{mean_w}}  {'95% CI':<{ci_w}}"
        return "\n".join([header] + lines)


def sim_result_from_dict(payload: Dict[str, object]) -> SimResult:
    """Rebuild a serialised result, sampled or not.

    The on-disk experiment cache stores both kinds through one code
    path; the ``sampling`` key marks the sampled flavour.
    """
    cls = SampledSimResult if "sampling" in payload else SimResult
    return cls.from_dict(payload)


def ipc_ratio(alternative: SimResult, baseline: SimResult) -> float:
    """IPC of ``alternative`` as a fraction of ``baseline`` (paper's ratios)."""
    if baseline.ipc == 0:
        return 0.0
    return alternative.ipc / baseline.ipc
