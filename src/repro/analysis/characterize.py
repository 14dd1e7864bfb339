"""Workload characterisation reports (§4.1/§4.2 style).

Produces, for any trace, the kind of characterisation table the paper's
§4.2 builds its studies on: instruction mix, footprints, branch
behaviour, and — when a model run is supplied — the structural miss
ratios and the Figure 7 stall decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.figures import fig07_characteristics
from repro.analysis.report import format_table, percent
from repro.analysis.runner import ExperimentRunner
from repro.analysis.workloads import Workload
from repro.model.config import MachineConfig, base_config
from repro.model.perfect import StallBreakdown
from repro.model.stats import SimResult
from repro.trace.stream import Trace, TraceStats


@dataclass
class WorkloadReport:
    """Characterisation of one workload."""

    name: str
    trace_stats: TraceStats
    sim: Optional[SimResult] = None
    breakdown: Optional[StallBreakdown] = None

    def format_report(self) -> str:
        stats = self.trace_stats
        rows = [
            ("instructions", f"{stats.instruction_count:,}"),
            ("loads", percent(stats.load_fraction)),
            ("stores", percent(stats.store_fraction)),
            ("branches", percent(stats.branch_fraction)),
            ("taken branches", percent(stats.taken_branch_fraction)),
            ("floating point", percent(stats.fp_fraction)),
            ("kernel mode", percent(stats.privileged_fraction)),
            ("code footprint", f"{stats.code_footprint_bytes // 1024} KB"),
            ("data footprint", f"{stats.data_footprint_bytes // 1024} KB"),
        ]
        if self.sim is not None:
            rows += [
                ("IPC", f"{self.sim.ipc:.3f}"),
                ("L1I miss", percent(self.sim.miss_ratio("l1i"), 2)),
                ("L1D miss", percent(self.sim.miss_ratio("l1d"), 2)),
                ("L2 miss", percent(self.sim.miss_ratio("l2"), 2)),
                ("mispredict", percent(self.sim.bht_misprediction_ratio, 2)),
            ]
        if self.breakdown is not None:
            rows += [
                ("time: core", percent(self.breakdown.core)),
                ("time: branch", percent(self.breakdown.branch)),
                ("time: ibs/tlb", percent(self.breakdown.ibs_tlb)),
                ("time: sx", percent(self.breakdown.sx)),
            ]
        return f"=== {self.name} ===\n" + format_table(["metric", "value"], rows)


def characterize_trace(trace: Trace, name: Optional[str] = None) -> WorkloadReport:
    """Static characterisation only (no simulation)."""
    return WorkloadReport(name or trace.name, trace.stats())


def characterize_workload(
    workload: Workload,
    config: Optional[MachineConfig] = None,
    with_breakdown: bool = False,
) -> WorkloadReport:
    """Full characterisation: trace statistics + model run (+ Figure 7).

    One runner serves both, so the breakdown's base model is the run the
    report shows.
    """
    config = config or base_config()
    runner = ExperimentRunner()
    breakdown = None
    if with_breakdown:
        [breakdown] = fig07_characteristics([workload], config, runner).breakdowns
    sim = runner.run(config, workload)
    return WorkloadReport(workload.name, workload.trace().stats(), sim, breakdown)
