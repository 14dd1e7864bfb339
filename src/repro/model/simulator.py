"""The uniprocessor performance model.

Wires a :class:`~repro.model.config.MachineConfig` into a fetch unit,
core and memory hierarchy and runs a trace through them, the way the
paper's trace-driven simulator does.

Warm-up: the paper's traces are captured after the workload reaches a
steady state, so its model starts with warm micro-architectural state.
Synthetic traces start cold; :func:`warm_up` therefore pre-warms the
workload's memory regions and *functionally* warms the caches, TLBs and
BHT on a leading fraction of the trace (touching tags without timing),
and the timed simulation runs on the remainder.  The timed region never
sees its own future.  Every CPU of every run — uniprocessor, sampled,
SMP, logic simulator and ``repro profile`` — is built and warmed by
:func:`build_cpu`.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from repro.common.errors import ConfigError
from repro.core.pipeline import ProcessorCore, functional_warm, sum_snapshots
from repro.frontend.bht import BranchHistoryTable
from repro.memory.coherence import CoherenceDomain
from repro.memory.hierarchy import MemoryHierarchy
from repro.model.config import MachineConfig
from repro.model.stats import SampledSimResult, SimResult
from repro.trace.sampling import SamplingPlan
from repro.trace.stream import Trace


def build_hierarchy(
    config: MachineConfig, domain: Optional[CoherenceDomain] = None, cpu: int = 0
) -> MemoryHierarchy:
    """Construct CPU ``cpu``'s memory hierarchy, joined to ``domain``.

    Without a ``domain`` the hierarchy gets a coherence domain of its
    own, with the system bus and memory controller ``config`` describes:
    a uniprocessor.
    """
    if domain is None:
        domain = CoherenceDomain(
            config.system_bus, config.memory, line_bytes=config.l2.line_bytes
        )
    return MemoryHierarchy(
        l1i=config.l1i,
        l1d=config.l1d,
        l2=config.l2,
        itlb=config.itlb,
        dtlb=config.dtlb,
        l1_l2_bus=config.l1_l2_bus,
        prefetch=config.prefetch,
        domain=domain,
        cpu=cpu,
        perfect_l1=config.perfect_l1,
        perfect_l2=config.perfect_l2,
        perfect_tlb=config.perfect_tlb,
    )


def prewarm_regions(hierarchy: MemoryHierarchy, regions: dict) -> None:
    """Install steady-state residency for a workload's memory regions.

    The residency is that of touching every L2 line of each region into
    the L2 (and data lines into the L1D, code lines into the L1I), in an
    order that leaves the *hot* sub-regions most recently used: cold
    spans first, code next, ``*_hot`` spans last.  This removes the
    first-touch transient that synthetic traces would otherwise pay for
    the paper's steady-state workloads — after pre-warming, each cache
    holds whatever its capacity allows.

    The touches are not replayed.  On empty caches, with every touch a
    demand fill in EXCLUSIVE state, each set ends up holding the last
    ``ways`` distinct lines touched in it, in LRU order, and
    :meth:`~repro.memory.cache.SetAssociativeCache.install_touched`
    writes exactly that down, once per cache.  The result equals a
    ``lookup``/``fill`` per line except that no statistics are counted
    (:func:`warm_structures` resets them anyway).  Every cache sees the
    touches at L2-line strides, keyed by its own line size.
    """
    line = hierarchy.l2.geometry.line_bytes
    # Touch order = reverse residency priority.  Big cold data regions go
    # first (only their tail survives in the L2), code next (code is the
    # steady-state L2 resident that OLTP I-fetch depends on), hot data
    # regions last (most recently used everywhere).
    hot_names = sorted(name for name in regions if name.endswith("_hot"))
    code_names = sorted(
        name for name in regions if "code" in name and not name.endswith("_hot")
    )
    cold_names = sorted(
        name
        for name in regions
        if name not in hot_names and name not in code_names
    )
    spans = []
    for name in cold_names + code_names + hot_names:
        base, size = regions[name]
        spans.append(("data" in name, range(base, base + size, line)))
    hierarchy.l2.install_touched([span for _, span in spans])
    hierarchy.l1d.install_touched([span for data, span in spans if data])
    hierarchy.l1i.install_touched([span for data, span in spans if not data])


def warm_structures(
    hierarchy: MemoryHierarchy,
    bht: BranchHistoryTable,
    trace: Trace,
) -> None:
    """Functionally touch caches/TLBs/BHT with ``trace`` (no timing).

    Fill decisions mirror the timed path: L1 and L2 are filled on misses,
    stores dirty their lines, branches train the predictor (see
    :func:`repro.core.pipeline.functional_warm`, which sampled simulation
    shares).  Statistics are reset afterwards so the timed region starts
    from zero counters.
    """
    functional_warm(hierarchy, bht, trace.records)
    # Reset statistics accumulated during pre-warm and warming.
    hierarchy.l1i.stats.__init__()
    hierarchy.l1d.stats.__init__()
    hierarchy.l2.stats.__init__()
    hierarchy.itlb.stats.__init__()
    hierarchy.dtlb.stats.__init__()
    bht.stats.__init__()


def warm_up(
    hierarchy: MemoryHierarchy,
    bht: BranchHistoryTable,
    trace: Trace,
    warmup_fraction: float = 0.0,
    regions: Optional[dict] = None,
) -> Trace:
    """Warm one processor's state; return the timed part of ``trace``.

    The one warm-up every CPU gets, through :func:`build_cpu`: the
    leading ``warmup_fraction`` of ``trace`` is split off, ``regions``
    (from :meth:`TraceGenerator.memory_regions`) are pre-warmed to
    steady-state residency, the split-off prefix functionally warms
    caches, TLBs and ``bht``, and the statistics both touched are reset
    once.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigError("warmup_fraction must be in [0, 1)")
    if len(trace) == 0:
        raise ConfigError("cannot simulate an empty trace")
    split = int(len(trace) * warmup_fraction)
    if regions:
        prewarm_regions(hierarchy, regions)
    warm_structures(hierarchy, bht, trace.head(split))
    return trace[split:] if split else trace


def build_cpu(
    config: MachineConfig,
    trace: Trace,
    warmup_fraction: float = 0.0,
    regions: Optional[dict] = None,
    domain: Optional[CoherenceDomain] = None,
    cpu: int = 0,
) -> Tuple[MemoryHierarchy, BranchHistoryTable, Trace]:
    """Build and warm one CPU; return its hierarchy, BHT and timed trace.

    The one place a CPU's state is made: :func:`build_hierarchy` joins
    ``domain`` (a one-CPU domain of its own by default), the BHT is
    built from ``config.bht``, and :func:`warm_up` warms both.  Every
    run builds its CPUs here — uniprocessor, sampled, each SMP CPU, the
    logic simulator and ``repro profile`` — and hands the hierarchy and
    BHT to the :class:`~repro.core.pipeline.ProcessorCore` it times.
    """
    hierarchy = build_hierarchy(config, domain, cpu)
    bht = BranchHistoryTable(config.bht)
    timed = warm_up(hierarchy, bht, trace, warmup_fraction, regions)
    return hierarchy, bht, timed


class PerformanceModel:
    """Configurable trace-driven uniprocessor simulator.

    Every run drives a :class:`~repro.core.pipeline.ProcessorCore` built
    from ``config``; the same core serves the SMP model and sampling.
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config

    def run(
        self,
        trace: Trace,
        warmup_fraction: float = 0.1,
        regions: Optional[dict] = None,
        tracer=None,
    ) -> SimResult:
        """Simulate ``trace``; the leading fraction warms state untimed.

        ``regions`` (from :meth:`TraceGenerator.memory_regions`) enables
        steady-state pre-warming before the trace-prefix warm-up (both in
        :func:`warm_up`).  ``tracer`` (a
        :class:`~repro.observe.events.PipelineTracer`) enables per-cycle
        pipeline event capture for the timed region.
        """
        config = self.config
        hierarchy, bht, timed_part = build_cpu(config, trace, warmup_fraction, regions)
        core = ProcessorCore(timed_part, hierarchy, config.core, config.frontend, bht)
        if tracer is not None:
            core.attach_tracer(tracer)

        started = time.perf_counter()
        core.run()
        elapsed = max(time.perf_counter() - started, 1e-9)

        counts = core.snapshot()
        return SimResult.from_counts(
            config.name,
            trace.name,
            counts,
            warmup_instructions=len(trace) - len(timed_part),
            sim_speed=counts["instructions"] / elapsed,
        )

    def run_sampled(
        self,
        trace: Trace,
        plan: SamplingPlan,
        regions: Optional[dict] = None,
    ) -> SampledSimResult:
        """SMARTS-style sampled simulation of ``trace``.

        The schedule in ``plan`` places a measurement window every
        ``period`` instructions.  Instructions between detailed windows
        are *functionally warmed* — caches, TLBs and the BHT see every
        reference, but nothing is timed — so long-lived state tracks the
        full run closely (SMARTS' always-on functional warming; skipping
        the gaps outright leaves stale cache/predictor state and biases
        every window's CPI upward).  Each window then runs
        ``detail_warmup + sample_length + drain_pad`` instructions
        through the detailed core, measuring only the middle span (see
        :meth:`ProcessorCore.run_measured`).  Per-window timing
        reservations are rewound, since every window restarts at cycle 0.

        Aggregated totals populate the usual :class:`SimResult` fields;
        per-window dispersion yields the 95 % confidence intervals in
        ``SampledSimResult.estimates``.
        """
        # Imported here: repro.analysis imports this module at package
        # init, so a module-level import would be circular.
        from repro.analysis import estimate

        windows = list(plan.windows(len(trace)))
        if not windows:
            raise ConfigError(
                f"sampling plan {plan.key()} schedules no windows in a "
                f"{len(trace)}-instruction trace (needs >= {plan.span})"
            )

        config = self.config
        hierarchy, bht, _ = build_cpu(config, trace, regions=regions)

        records = trace.records
        measurements = []
        warmed = 0
        detailed = 0
        cursor = 0  # everything before this index has been warmed or run
        started = time.perf_counter()
        for window in windows:
            if cursor < window.detail_start:
                warmed += functional_warm(
                    hierarchy,
                    bht,
                    records[cursor : window.detail_start],
                    prefetch=True,
                )
            hierarchy.reset_timing()
            window_trace = Trace(
                records[window.detail_start : window.end],
                name=f"{trace.name}#w{window.index}",
                cpu=trace.cpu,
            )
            core = ProcessorCore(window_trace, hierarchy, config.core, config.frontend, bht)
            detailed += len(window_trace)
            measurements.append(
                core.run_measured(
                    window.measure_start - window.detail_start,
                    window.measure_end - window.detail_start,
                )
            )
            cursor = window.end
        elapsed = max(time.perf_counter() - started, 1e-9)

        totals = sum_snapshots(measurements)
        return SampledSimResult.from_counts(
            config.name,
            trace.name,
            totals,
            # Effective speed: the whole trace covered per host second.
            sim_speed=len(trace) / elapsed,
            warmup_instructions=warmed,
            sampling={
                "period": plan.period,
                "sample_length": plan.sample_length,
                "warmup": plan.warmup,
                "detail_warmup": plan.detail_warmup,
                "drain_pad": plan.drain_pad,
                "windows": len(windows),
                "trace_instructions": len(trace),
                "measured_instructions": totals["instructions"],
                "warmed_instructions": warmed,
                "detailed_instructions": detailed,
            },
            estimates={
                name: est.to_dict()
                for name, est in estimate.compute_estimates(measurements).items()
            },
            window_instructions=[m["instructions"] for m in measurements],
            window_cycles=[m["cycles"] for m in measurements],
            window_stacks=[m["cpi_stack"] for m in measurements],
        )

