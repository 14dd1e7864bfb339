"""Reproduction functions, one per figure of the paper's §4, plus §3's
ablations.

Each function runs the necessary (configuration × workload) matrix on an
:class:`~repro.analysis.runner.ExperimentRunner` and returns a result
object carrying both the raw numbers and a ``format_table()`` renderer
that prints the same series the paper plots.  :data:`FIGURES` names them
as ``repro figures`` does; the paper's statements about each are graded
by :mod:`repro.analysis.claims`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.report import cell, format_table, partial_note, percent
from repro.analysis.runner import ExperimentRunner
from repro.analysis.workloads import (
    Workload,
    smp_workload,
    standard_workloads,
)
from repro.model.config import (
    MachineConfig,
    base_config,
    bht_4k_2w_1t,
    issue_2way,
    l1_32k_1w_3c,
    l2_off_8m_1w,
    l2_off_8m_2w,
    one_rs,
    prefetch_off,
)
from repro.model.perfect import (
    StallBreakdown,
    breakdown_from_cycles,
    perfect_variants,
)
from repro.model.stats import SimResult, ipc_ratio
from repro.observe.cpistack import render_stack_table

# ---------------------------------------------------------------------------
# Shared table shapes; a point abandoned by the failure policy is ``n/a``.
# ---------------------------------------------------------------------------


def _study_table(
    title: str,
    headers: List[str],
    ratio: "IpcRatioResult",
    columns: List[Tuple[Dict[str, Optional[float]], int]],
) -> str:
    """One row per workload: ``ratio``'s IPC ratio, then each column's
    percentage at its digits; footnoted when a point was abandoned."""
    rows = [
        (name, cell(value), *(cell(col[name], digits) for col, digits in columns))
        for name, value in ratio.ratios.items()
    ]
    note = partial_note(ratio.missing, "workload")
    return f"{title}\n{format_table(headers, rows)}{note}"


def _per_workload(
    runner: ExperimentRunner,
    config: MachineConfig,
    workloads: List[Workload],
    read: Callable[[SimResult], float],
) -> Dict[str, Optional[float]]:
    """``read(result)`` per workload; ``None`` where the run was abandoned."""
    results = {w.name: runner.try_run(config, w) for w in workloads}
    return {name: None if r is None else read(r) for name, r in results.items()}


# ---------------------------------------------------------------------------
# Figure 7 — benchmark characteristics.
# ---------------------------------------------------------------------------


@dataclass
class Fig07Result:
    """Execution-time breakdowns (Figure 7)."""

    breakdowns: List[StallBreakdown]
    #: Workloads with a model abandoned by the failure policy.
    missing: List[str] = field(default_factory=list)

    def format_table(self) -> str:
        rows = [
            (
                item.trace_name,
                percent(item.core),
                percent(item.branch),
                percent(item.ibs_tlb),
                percent(item.sx),
            )
            for item in self.breakdowns
        ] + [(name, "n/a", "n/a", "n/a", "n/a") for name in self.missing]
        return format_table(
            ["workload", "core", "branch", "ibs/tlb", "sx"], rows
        ) + partial_note(self.missing, "workload")


def fig07_characteristics(
    workloads: Optional[List[Workload]] = None,
    config: Optional[MachineConfig] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Fig07Result:
    """Figure 7: stall breakdown via perfect-structure models.

    The four models per workload (base, perfect L2, perfect L1+TLB,
    perfect everything) go through ``runner`` so they parallelise and
    cache like every other figure's runs.
    """
    workloads = workloads or standard_workloads()
    config = config or base_config()
    runner = runner or ExperimentRunner()
    variants = perfect_variants(config)
    runner.prefetch(
        up=[(variant, w) for variant in variants for w in workloads]
    )
    result = Fig07Result([])
    for workload in workloads:
        runs = [runner.try_run(variant, workload) for variant in variants]
        if any(run is None for run in runs):
            result.missing.append(workload.name)
            continue
        cycles = [run.cycles for run in runs]
        result.breakdowns.append(breakdown_from_cycles(workload.name, *cycles))
    return result


# ---------------------------------------------------------------------------
# Measured CPI stacks (the cycle-attribution companion to Figure 7).
# ---------------------------------------------------------------------------


@dataclass
class CpiStackResult:
    """Measured per-workload CPI stacks from the cycle accountant.

    Figure 7 derives its breakdown from perfect-structure model *deltas*;
    this is the same question answered by direct attribution — every
    simulated cycle charged to one stall category, conserving the total.
    Both tables are printed so the two methodologies can be compared.
    """

    stacks: Dict[str, Dict[str, int]]  # row label -> category -> cycles
    cycles: Dict[str, int]
    #: Workloads whose run was abandoned; their (empty) rows show ``n/a``.
    missing: List[str] = field(default_factory=list)

    def format_table(self) -> str:
        fine = render_stack_table(self.stacks)
        fig7 = render_stack_table(self.stacks, fig7=True)
        return (
            "measured CPI stacks (fraction of cycles):\n"
            f"{fine}\n\n"
            "collapsed onto Figure 7 buckets:\n"
            f"{fig7}"
        ) + partial_note(self.missing, "workload")


def fig_cpistack(
    workloads: Optional[List[Workload]] = None,
    config: Optional[MachineConfig] = None,
    runner: Optional[ExperimentRunner] = None,
) -> CpiStackResult:
    """Measured CPI stacks for the standard workloads on one config."""
    workloads = workloads or standard_workloads()
    config = config or base_config()
    runner = runner or ExperimentRunner()
    runner.prefetch(up=[(config, w) for w in workloads])
    out = CpiStackResult({}, {})
    for workload in workloads:
        result = runner.try_run(config, workload)
        if result is None:
            out.stacks[workload.name] = {}
            out.missing.append(workload.name)
            continue
        out.stacks[workload.name] = dict(result.core.cpi_stack)
        out.cycles[workload.name] = result.cycles
    return out


# ---------------------------------------------------------------------------
# Generic two-config IPC-ratio figure (Figures 8, 9, 11, 18 share shape).
# ---------------------------------------------------------------------------


@dataclass
class IpcRatioResult:
    """IPC of an alternative config relative to a baseline, per workload.

    A ``None`` ratio marks a workload whose run was abandoned by the
    failure policy; the table shows ``n/a`` and footnotes the gap.
    """

    title: str
    baseline_name: str
    alternative_name: str
    ratios: Dict[str, Optional[float]]  # workload -> alt IPC / baseline IPC

    @property
    def missing(self) -> List[str]:
        return [name for name, ratio in self.ratios.items() if ratio is None]

    def format_table(self) -> str:
        delta = {
            name: None if ratio is None else ratio - 1.0
            for name, ratio in self.ratios.items()
        }
        return _study_table(
            self.title,
            ["workload", f"{self.alternative_name}/{self.baseline_name}", "delta"],
            self,
            [(delta, 2)],
        )


def _ipc_ratio_study(
    title: str,
    baseline: MachineConfig,
    alternative: MachineConfig,
    workloads: List[Workload],
    runner: ExperimentRunner,
) -> IpcRatioResult:
    # Fan the whole (config × workload) matrix out first; a parallel
    # runner executes it across workers, the serial one stays lazy.
    runner.prefetch(
        up=[(config, w) for config in (baseline, alternative) for w in workloads]
    )
    ratios: Dict[str, Optional[float]] = {}
    for workload in workloads:
        base_result = runner.try_run(baseline, workload)
        alt_result = runner.try_run(alternative, workload)
        ratios[workload.name] = (
            None
            if base_result is None or alt_result is None
            else ipc_ratio(alt_result, base_result)
        )
    return IpcRatioResult(title, baseline.name, alternative.name, ratios)


def fig08_issue_width(
    workloads: Optional[List[Workload]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> IpcRatioResult:
    """Figure 8: 4-way vs 2-way issue (reported as 4-way over 2-way)."""
    workloads = workloads or standard_workloads()
    runner = runner or ExperimentRunner()
    result = _ipc_ratio_study(
        "Figure 8: issue width (IPC of 4-way relative to 2-way)",
        issue_2way(),
        base_config(),
        workloads,
        runner,
    )
    return result


# ---------------------------------------------------------------------------
# Figures 9 and 10 — branch history table.
# ---------------------------------------------------------------------------


@dataclass
class BhtStudyResult:
    """Figure 9 (IPC ratio) + Figure 10 (misprediction rates)."""

    ipc_ratio: IpcRatioResult
    mispredict_16k: Dict[str, Optional[float]]
    mispredict_4k: Dict[str, Optional[float]]

    def format_table(self) -> str:
        increase: Dict[str, Optional[float]] = {}
        for name, big in self.mispredict_16k.items():
            small = self.mispredict_4k[name]
            if big is None or small is None:
                increase[name] = None
            else:
                increase[name] = (small - big) / big if big else 0.0
        return _study_table(
            "Figures 9/10: BHT 4k-2w.1t versus 16k-4w.2t",
            [
                "workload",
                "IPC(4k)/IPC(16k)",
                "mispredict 16k-4w.2t",
                "mispredict 4k-2w.1t",
                "failure increase",
            ],
            self.ipc_ratio,
            [(self.mispredict_16k, 2), (self.mispredict_4k, 2), (increase, 0)],
        )


def fig09_10_bht(
    workloads: Optional[List[Workload]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> BhtStudyResult:
    """Figures 9 and 10: BHT latency-versus-size trade-off."""
    workloads = workloads or standard_workloads()
    runner = runner or ExperimentRunner()
    baseline = base_config()
    alternative = bht_4k_2w_1t()
    ratio = _ipc_ratio_study(
        "Figure 9: IPC of 4k-2w.1t relative to 16k-4w.2t",
        baseline,
        alternative,
        workloads,
        runner,
    )

    def mispredicts(config: MachineConfig) -> Dict[str, Optional[float]]:
        return _per_workload(
            runner, config, workloads, lambda r: r.bht_misprediction_ratio
        )

    return BhtStudyResult(ratio, mispredicts(baseline), mispredicts(alternative))


# ---------------------------------------------------------------------------
# Figures 11, 12, 13 — level-one cache.
# ---------------------------------------------------------------------------


@dataclass
class L1StudyResult:
    """Figure 11 (IPC) + Figures 12/13 (I and D miss ratios)."""

    ipc_ratio: IpcRatioResult
    imiss_128k: Dict[str, Optional[float]]
    imiss_32k: Dict[str, Optional[float]]
    dmiss_128k: Dict[str, Optional[float]]
    dmiss_32k: Dict[str, Optional[float]]

    def format_table(self) -> str:
        return _study_table(
            "Figures 11-13: L1 32k-1w.3c versus 128k-2w.4c",
            [
                "workload",
                "IPC(32k)/IPC(128k)",
                "I-miss 128k",
                "I-miss 32k",
                "D-miss 128k",
                "D-miss 32k",
            ],
            self.ipc_ratio,
            [
                (column, 2)
                for column in (
                    self.imiss_128k, self.imiss_32k, self.dmiss_128k, self.dmiss_32k
                )
            ],
        )


def fig11_12_13_l1(
    workloads: Optional[List[Workload]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> L1StudyResult:
    """Figures 11–13: L1 cache latency-versus-volume trade-off."""
    workloads = workloads or standard_workloads()
    runner = runner or ExperimentRunner()
    baseline = base_config()
    alternative = l1_32k_1w_3c()
    ratio = _ipc_ratio_study(
        "Figure 11: IPC of 32k-1w.3c relative to 128k-2w.4c",
        baseline,
        alternative,
        workloads,
        runner,
    )

    def misses(config: MachineConfig, cache: str) -> Dict[str, Optional[float]]:
        return _per_workload(runner, config, workloads, lambda r: r.miss_ratio(cache))

    return L1StudyResult(
        ipc_ratio=ratio,
        imiss_128k=misses(baseline, "l1i"),
        imiss_32k=misses(alternative, "l1i"),
        dmiss_128k=misses(baseline, "l1d"),
        dmiss_32k=misses(alternative, "l1d"),
    )


# ---------------------------------------------------------------------------
# Figures 14 and 15 — on-chip vs off-chip L2, including TPC-C (16P).
# ---------------------------------------------------------------------------


@dataclass
class L2StudyResult:
    """Figure 14 (IPC ratios) + Figure 15 (L2 miss ratios)."""

    #: workload -> config label -> IPC relative to on.2m-4w (``None``:
    #: that point or the on.2m-4w one was abandoned)
    ipc_ratios: Dict[str, Dict[str, Optional[float]]]
    #: workload -> config label -> L2 demand miss ratio
    miss_ratios: Dict[str, Dict[str, Optional[float]]]
    labels: List[str] = field(
        default_factory=lambda: ["on.2m-4w", "off.8m-2w", "off.8m-1w"]
    )

    @property
    def missing(self) -> List[str]:
        return [
            name
            for name, per_config in self.ipc_ratios.items()
            if None in per_config.values()
        ]

    def format_table(self) -> str:
        rows = []
        for name, per_config in self.ipc_ratios.items():
            misses = self.miss_ratios[name]
            rows.append(
                (
                    name,
                    *(cell(per_config[label]) for label in self.labels),
                    *(cell(misses[label], 2) for label in self.labels),
                )
            )
        headers = (
            ["workload"]
            + [f"IPC {label}" for label in self.labels]
            + [f"L2 miss {label}" for label in self.labels]
        )
        return (
            "Figures 14/15: L2 design study\n"
            + format_table(headers, rows)
            + partial_note(self.missing, "workload")
        )


#: Per-CPU trace caps for the TPC-C SMP rows of Figures 14/15, which
#: run one trace per CPU and so stay tractable only with shorter ones.
SMP_WARM_CAP = 20_000
SMP_TIMED_CAP = 6_000


def fig14_15_l2(
    workloads: Optional[List[Workload]] = None,
    runner: Optional[ExperimentRunner] = None,
    smp_cpus: int = 16,
    smp_workload_override: Optional[Workload] = None,
) -> L2StudyResult:
    """Figures 14/15: on-chip 2 MB vs off-chip 8 MB L2 (+TPC-C SMP).

    The SMP row's per-CPU traces are the uniprocessor lengths capped at
    :data:`SMP_WARM_CAP` / :data:`SMP_TIMED_CAP`, unless overridden.
    """
    workloads = workloads or standard_workloads()
    runner = runner or ExperimentRunner()
    configs = {
        "on.2m-4w": base_config(),
        "off.8m-2w": l2_off_8m_2w(),
        "off.8m-1w": l2_off_8m_1w(),
    }
    smp = smp_workload_override or smp_workload(
        smp_cpus,
        warm=min(workloads[0].warm_instructions, SMP_WARM_CAP),
        timed=min(workloads[0].timed_instructions, SMP_TIMED_CAP),
    )
    runner.prefetch(
        up=[(config, w) for config in configs.values() for w in workloads],
        smp=[(config, smp, smp_cpus) for config in configs.values()],
    )
    ipc_ratios: Dict[str, Dict[str, Optional[float]]] = {}
    miss_ratios: Dict[str, Dict[str, Optional[float]]] = {}

    def tabulate(name: str, results: dict, l2_miss: Callable) -> None:
        # ``None`` marks a point abandoned by the failure policy.
        base = results["on.2m-4w"]
        ipc_ratios[name] = {
            label: None if result is None or base is None else ipc_ratio(result, base)
            for label, result in results.items()
        }
        miss_ratios[name] = {
            label: None if result is None else l2_miss(result)
            for label, result in results.items()
        }

    for workload in workloads:
        tabulate(
            workload.name,
            {label: runner.try_run(c, workload) for label, c in configs.items()},
            lambda result: result.miss_ratio("l2"),
        )
    tabulate(
        smp.name,
        {label: runner.try_run_smp(c, smp, smp_cpus) for label, c in configs.items()},
        lambda result: result.l2_miss_ratio(),
    )
    return L2StudyResult(ipc_ratios=ipc_ratios, miss_ratios=miss_ratios)


# ---------------------------------------------------------------------------
# Figures 16 and 17 — hardware prefetching.
# ---------------------------------------------------------------------------


@dataclass
class PrefetchStudyResult:
    """Figure 16 (IPC impact) + Figure 17 (L2 miss with/without)."""

    ipc_ratio: IpcRatioResult  # with-prefetch relative to without
    miss_with: Dict[str, Optional[float]]  # all requests including prefetches
    miss_with_demand: Dict[str, Optional[float]]  # demand requests only
    miss_without: Dict[str, Optional[float]]

    def format_table(self) -> str:
        return _study_table(
            "Figures 16/17: hardware prefetching",
            [
                "workload",
                "IPC(with)/IPC(without)",
                "L2 miss with",
                "L2 miss with-Demand",
                "L2 miss without",
            ],
            self.ipc_ratio,
            [
                (column, 2)
                for column in (self.miss_with, self.miss_with_demand, self.miss_without)
            ],
        )


def fig16_17_prefetch(
    workloads: Optional[List[Workload]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> PrefetchStudyResult:
    """Figures 16/17: L2 hardware prefetch on versus off."""
    workloads = workloads or standard_workloads()
    runner = runner or ExperimentRunner()
    with_pf = base_config()
    without_pf = prefetch_off()
    ratio = _ipc_ratio_study(
        "Figure 16: IPC with prefetch relative to without",
        without_pf,
        with_pf,
        workloads,
        runner,
    )

    def l2_misses(config: MachineConfig, demand: bool) -> Dict[str, Optional[float]]:
        return _per_workload(
            runner, config, workloads, lambda r: r.miss_ratio("l2", demand)
        )

    return PrefetchStudyResult(
        ipc_ratio=ratio,
        miss_with=l2_misses(with_pf, False),
        miss_with_demand=l2_misses(with_pf, True),
        miss_without=l2_misses(without_pf, True),
    )


# ---------------------------------------------------------------------------
# Figure 18 — reservation-station organisation.
# ---------------------------------------------------------------------------


def fig18_reservation(
    workloads: Optional[List[Workload]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> IpcRatioResult:
    """Figure 18: 2RS relative to 1RS (paper: 2RS slightly lower)."""
    workloads = workloads or standard_workloads()
    runner = runner or ExperimentRunner()
    return _ipc_ratio_study(
        "Figure 18: IPC of 2RS relative to 1RS",
        one_rs(),
        base_config(),
        workloads,
        runner,
    )


# ---------------------------------------------------------------------------
# Figure 19 — model accuracy.
# ---------------------------------------------------------------------------


@dataclass
class AccuracyResult:
    """Figure 19: estimates by model version (upper graph) and model error
    against the machine by verification phase (lower graph)."""

    #: workload -> version -> performance relative to v8 (``None``: abandoned)
    versions: Dict[str, Dict[str, Optional[float]]]
    #: workload -> phase -> relative cycle error against the machine
    errors: Dict[str, Dict[str, Optional[float]]]

    @property
    def missing(self) -> List[str]:
        return [
            name
            for name in self.versions
            if None in self.versions[name].values() or None in self.errors[name].values()
        ]

    def format_table(self) -> str:
        def table(rows: Dict[str, Dict[str, Optional[float]]], render) -> str:
            labels = list(next(iter(rows.values()), {}))
            return format_table(
                ["workload", *labels],
                [(name, *map(render, row.values())) for name, row in rows.items()],
            )

        return (
            "Figure 19 (upper): performance estimate by model version (v8 = 1.0)\n"
            + table(self.versions, cell)
            + "\n\nFigure 19 (lower): model error against the machine by phase\n"
            + table(self.errors, lambda e: "n/a" if e is None else f"{e:+.1%}")
            + partial_note(self.missing, "workload")
        )


def fig19_accuracy(
    workloads: Optional[List[Workload]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> AccuracyResult:
    """Figure 19 on the SPEC CPU2000 rows of ``workloads``; the machine
    runs another sample of each (:mod:`repro.verify.accuracy`)."""
    # Imported on use: repro.verify also loads the reverse tracer and the
    # ISA executor, which nothing else in the analysis layer needs.
    from repro.verify.accuracy import accuracy_history, fig19_runs, version_estimate_history

    spec2000 = ("SPECint2000", "SPECfp2000")
    workloads = [w for w in workloads or standard_workloads() if w.name in spec2000]
    runner = runner or ExperimentRunner()
    runner.prefetch(up=fig19_runs(workloads))
    errors: Dict[str, Dict[str, Optional[float]]] = {}
    for point in accuracy_history(workloads, runner):
        errors.setdefault(point.workload, {})[point.phase] = point.error
    return AccuracyResult(version_estimate_history(workloads, runner), errors)


# ---------------------------------------------------------------------------
# §3 ablations — the design techniques the paper argues for.
# ---------------------------------------------------------------------------


def _sec3_ablated(base: MachineConfig) -> Dict[str, Tuple[str, MachineConfig]]:
    """§3 technique -> (the workload it is measured on, ``base`` without it)."""
    core, l1d, l2 = base.core, base.l1d, base.l2
    return {
        "speculative dispatch": ("SPECint95", base.derived(
            "no-speculative-dispatch", core=core.derived(speculative_dispatch=False))),
        "data forwarding": ("SPECint95", base.derived(
            "no-forwarding", core=core.derived(data_forwarding=False))),
        "dual L1D port": ("TPC-C", base.derived(
            "single-port", core=core.derived(l1d_ports=1))),
        "8x4 B banking": ("TPC-C", base.derived("unbanked", l1d=l1d.scaled(banks=1))),
        "non-blocking caches": ("TPC-C", base.derived(
            "blocking", l1d=l1d.scaled(mshr_count=1), l2=l2.scaled(mshr_count=1))),
    }


@dataclass
class AblationResult:
    """IPC of the base machine over IPC without each §3 technique."""

    workloads: Dict[str, str]  # technique -> workload it ran on
    ratios: Dict[str, Optional[float]]  # technique -> ratio; None: abandoned

    @property
    def missing(self) -> List[str]:
        return [name for name, ratio in self.ratios.items() if ratio is None]

    def format_table(self) -> str:
        rows = [
            (name, self.workloads[name], cell(ratio),
             cell(None if ratio is None else ratio - 1.0, 2))
            for name, ratio in self.ratios.items()
        ]
        return (
            "§3 ablations: IPC with each technique relative to without it\n"
            + format_table(["technique", "workload", "with/without", "delta"], rows)
            + partial_note(self.missing, "technique")
        )


def sec3_ablations(
    workloads: Optional[List[Workload]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> AblationResult:
    """§3's techniques, each switched off on the SPECint95 or TPC-C row of
    ``workloads``."""
    by_name = {w.name: w for w in workloads or standard_workloads()}
    runner = runner or ExperimentRunner()
    base = base_config()
    ablations = _sec3_ablated(base)
    runner.prefetch(up=[
        (config, by_name[name])
        for name, ablated in ablations.values()
        for config in (base, ablated)
    ])
    ratios: Dict[str, Optional[float]] = {}
    for technique, (name, ablated) in ablations.items():
        with_it = runner.try_run(base, by_name[name])
        without = runner.try_run(ablated, by_name[name])
        ratios[technique] = (
            None if with_it is None or without is None else ipc_ratio(with_it, without)
        )
    return AblationResult(
        {technique: name for technique, (name, _) in ablations.items()}, ratios
    )


# ---------------------------------------------------------------------------
# The figure registry ``repro figures``, the claims ledger and the figure
# benchmarks share.
# ---------------------------------------------------------------------------

#: Figure key (as ``repro figures`` takes it) -> reproduction function.
FIGURES: Dict[str, Callable[..., Any]] = {
    "7": fig07_characteristics,
    "8": fig08_issue_width,
    "9": fig09_10_bht,
    "11": fig11_12_13_l1,
    "14": fig14_15_l2,
    "16": fig16_17_prefetch,
    "18": fig18_reservation,
    "19": fig19_accuracy,
    "ablations": sec3_ablations,
    "cpistack": fig_cpistack,
}


def run_figure(
    key: str,
    workloads: List[Workload],
    runner: ExperimentRunner,
    smp_cpus: int = 16,
) -> Any:
    """Run figure ``key`` of :data:`FIGURES`; ``smp_cpus`` sizes Fig. 14's
    TPC-C SMP row."""
    if key == "14":
        return fig14_15_l2(workloads, runner, smp_cpus=smp_cpus)
    return FIGURES[key](workloads, runner=runner)
