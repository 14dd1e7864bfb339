"""Parameter sweeps beyond the paper's printed figures.

The paper's §4 studies compare two or three hand-picked design points;
these helpers sweep the same axes continuously, the kind of supplemental
study performance architects run between the printed ones:

- :func:`l2_size_sweep` — L2 capacity (§4.3.4's "2 MB is a result of
  discussions about LSI technology"), with the prefetcher on;
- :func:`window_size_sweep` — instruction-window depth (§3's 64-entry
  choice);
- :func:`smp_scaling_sweep` — TPC-C throughput versus processor count
  (the system-balance study behind §4.3.4's 16P line);
- :func:`bht_size_sweep` — BHT capacity between the paper's two points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.report import cell, format_table, partial_note
from repro.analysis.runner import ExperimentRunner, point_label
from repro.analysis.workloads import Workload, smp_workload, workload_by_name
from repro.frontend.bht import BhtParams
from repro.model.config import MachineConfig, base_config
from repro.model.stats import SampledSimResult, SimResult
from repro.smp.system import SmpResult


def _ipc_error_series(results: Sequence) -> Optional[List[Optional[float]]]:
    """95 % IPC half-widths when any result is sampled, else ``None``.

    Sweeps over sampled runs report their sampling error alongside the
    point estimates, so a trend smaller than the error bars is visibly
    not a trend.
    """
    if not any(isinstance(result, SampledSimResult) for result in results):
        return None
    return [
        result.ipc_half_width if isinstance(result, SampledSimResult) else None
        for result in results
    ]


@dataclass
class SweepResult:
    """One sweep: axis label, points, and per-point measurements.

    A point whose run was abandoned by the failure policy (``skip``)
    carries ``None`` in every series and its label in :attr:`missing`;
    the table renders it as ``n/a`` and footnotes the gap, so a partial
    campaign is visibly partial instead of silently shorter.
    """

    title: str
    axis: str
    points: List[object]
    #: metric name -> one value per point (None = run skipped).
    series: Dict[str, List[Optional[float]]] = field(default_factory=dict)
    #: Labels of points that were skipped after repeated failures.
    missing: List[str] = field(default_factory=list)

    @property
    def is_partial(self) -> bool:
        return bool(self.missing)

    def format_table(self) -> str:
        headers = [self.axis] + list(self.series)
        rows = [
            [point] + [cell(values[index]) for values in self.series.values()]
            for index, point in enumerate(self.points)
        ]
        table = format_table(headers, rows)
        return f"{self.title}\n{table}{partial_note(self.missing, 'point')}"


def _tabulate(
    title: str,
    axis: str,
    points: Sequence[object],
    requests: Sequence[tuple],
    results: Sequence,
    metrics: Dict[str, Callable],
) -> SweepResult:
    """One sweep's table: ``metrics`` of each result, ``None`` (and a
    ``missing`` label) where the failure policy skipped the point, plus
    the ``IPC ±95%`` column when any result is sampled."""
    series: Dict[str, List[Optional[float]]] = {
        name: [None if result is None else metric(result) for result in results]
        for name, metric in metrics.items()
    }
    errors = _ipc_error_series(results)
    if errors is not None:
        series["IPC ±95%"] = errors
    return SweepResult(
        title=title,
        axis=axis,
        points=list(points),
        series=series,
        missing=[
            point_label(workload.name, config.name, cpus)
            for (config, workload, cpus), result in zip(requests, results)
            if result is None
        ],
    )


def _config_sweep(
    title: str,
    axis: str,
    points: Sequence[object],
    configs: Sequence[MachineConfig],
    workload: Workload,
    runner: Optional[ExperimentRunner],
    metrics: Dict[str, Callable[[SimResult], float]],
) -> SweepResult:
    """A uniprocessor sweep: ``workload`` on each of ``configs``."""
    runner = runner or ExperimentRunner()
    runner.prefetch(up=[(config, workload) for config in configs])
    results = [runner.try_run(config, workload) for config in configs]
    requests = [(config, workload, None) for config in configs]
    return _tabulate(
        f"{title} on {workload.name}", axis, points, requests, results, metrics
    )


def l2_size_sweep(
    sizes_mb: Sequence[int] = (1, 2, 4, 8),
    workload: Optional[Workload] = None,
    runner: Optional[ExperimentRunner] = None,
) -> SweepResult:
    """IPC and L2 miss ratio versus on-chip L2 capacity (TPC-C)."""
    base = base_config()
    configs = [
        base.derived(
            f"l2-{size}m",
            l2=base.l2.scaled(
                name=f"L2-{size}m", size_bytes=size * 1024 * 1024
            ),
        )
        for size in sizes_mb
    ]
    return _config_sweep(
        "L2 capacity sweep",
        "L2 (MB)",
        sizes_mb,
        configs,
        workload or workload_by_name("TPC-C"),
        runner,
        {"IPC": lambda r: r.ipc, "L2 miss ratio": lambda r: r.miss_ratio("l2")},
    )


def window_size_sweep(
    sizes: Sequence[int] = (16, 32, 64, 128),
    workload: Optional[Workload] = None,
    runner: Optional[ExperimentRunner] = None,
) -> SweepResult:
    """IPC versus instruction-window (commit stack) depth."""
    base = base_config()
    configs = [
        base.derived(f"window-{size}", core=base.core.derived(window_size=size))
        for size in sizes
    ]
    return _config_sweep(
        "Instruction-window sweep",
        "window",
        sizes,
        configs,
        workload or workload_by_name("SPECint95"),
        runner,
        {"IPC": lambda r: r.ipc},
    )


def bht_size_sweep(
    entry_counts: Sequence[int] = (1024, 4096, 16384, 65536),
    workload: Optional[Workload] = None,
    runner: Optional[ExperimentRunner] = None,
) -> SweepResult:
    """Misprediction ratio versus BHT capacity (fills in Figure 10)."""
    base = base_config()
    configs = [
        base.derived(
            f"bht-{entries}",
            bht=BhtParams(f"{entries // 1024}k", entries=entries, ways=4,
                          access_latency=2),
        )
        for entries in entry_counts
    ]
    return _config_sweep(
        "BHT capacity sweep",
        "entries",
        entry_counts,
        configs,
        workload or workload_by_name("TPC-C"),
        runner,
        {
            "mispredict ratio": lambda r: r.bht_misprediction_ratio,
            "IPC": lambda r: r.ipc,
        },
    )


def smp_scaling_sweep(
    cpu_counts: Sequence[int] = (1, 2, 4, 8, 16),
    runner: Optional[ExperimentRunner] = None,
    warm: int = 20_000,
    timed: int = 6_000,
    config: Optional[MachineConfig] = None,
) -> SweepResult:
    """System throughput and coherence traffic versus processor count."""
    runner = runner or ExperimentRunner()
    config = config or base_config()
    requests = [
        (config, smp_workload(cpus, warm=warm, timed=timed), cpus)
        for cpus in cpu_counts
    ]
    runner.prefetch(smp=requests)
    results = [runner.try_run_smp(*request) for request in requests]
    metrics: Dict[str, Callable[[SmpResult], float]] = {
        "system IPC": lambda r: r.ipc,
        "per-CPU IPC": lambda r: r.per_cpu_ipc,
        "move-outs/instr": lambda r: (
            r.coherence["cache_to_cache"] / max(r.total_instructions, 1)
        ),
    }
    return _tabulate(
        "TPC-C SMP scaling", "CPUs", cpu_counts, requests, results, metrics
    )
