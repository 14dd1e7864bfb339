"""Experiment harness: one function per table/figure of the paper.

Every function returns a structured result object with a
``format_table()`` method that prints the same rows/series the paper
reports.  The experiment-to-module map lives in DESIGN.md §4.
"""

from repro.analysis.workloads import (
    Workload,
    smp_workload,
    spec_workloads,
    standard_workloads,
    tpcc_workload,
    workload_by_name,
)
from repro.analysis.cache import ResultCache
from repro.analysis.policy import RunPolicy
from repro.analysis.runner import ExperimentRunner, ParallelRunner, RunnerStats
from repro.analysis.figures import (
    CpiStackResult,
    fig_cpistack,
    fig07_characteristics,
    fig08_issue_width,
    fig09_10_bht,
    fig11_12_13_l1,
    fig14_15_l2,
    fig16_17_prefetch,
    fig18_reservation,
    fig19_accuracy,
    sec3_ablations,
)
from repro.analysis.characterize import characterize_trace, characterize_workload
from repro.analysis.sweeps import (
    bht_size_sweep,
    l2_size_sweep,
    smp_scaling_sweep,
    window_size_sweep,
)

__all__ = [
    "Workload",
    "spec_workloads",
    "tpcc_workload",
    "smp_workload",
    "standard_workloads",
    "workload_by_name",
    "ExperimentRunner",
    "ParallelRunner",
    "RunnerStats",
    "RunPolicy",
    "ResultCache",
    "CpiStackResult",
    "fig_cpistack",
    "fig07_characteristics",
    "fig08_issue_width",
    "fig09_10_bht",
    "fig11_12_13_l1",
    "fig14_15_l2",
    "fig16_17_prefetch",
    "fig18_reservation",
    "fig19_accuracy",
    "sec3_ablations",
    "characterize_trace",
    "characterize_workload",
    "l2_size_sweep",
    "window_size_sweep",
    "bht_size_sweep",
    "smp_scaling_sweep",
]
