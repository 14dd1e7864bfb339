"""The N-processor system model.

Builds one :class:`~repro.core.ProcessorCore` + private L1/L2 hierarchy
per processor, joins the L2s through a :class:`CoherenceDomain` over a
single shared system bus and memory controller, and steps all cores in
global cycle order so bus contention and cache-to-cache transfers are
timed against each other — the paper's TPC-C (16P) configuration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from typing import Dict, List, Optional

from repro.common.errors import ConfigError
from repro.core.pipeline import ProcessorCore, step_cores
from repro.memory.coherence import CoherenceDomain
from repro.model.config import MachineConfig
from repro.model.simulator import build_cpu
from repro.model.stats import SimResult
from repro.trace.stream import Trace


@dataclass
class SmpResult:
    """Results of one multiprocessor run.

    ``per_cpu`` holds each CPU's own counters.  A CPU's
    ``system_bus_utilization`` counts the busy cycles of the shared-bus
    transfers that CPU caused (its misses, upgrades and write-backs), so
    the per-CPU figures sum to this object's ``system_bus_utilization``.
    """

    config_name: str
    workload_name: str
    cpu_count: int
    cycles: int
    total_instructions: int
    per_cpu: List[SimResult]
    coherence: Dict[str, int] = field(default_factory=dict)
    system_bus_utilization: float = 0.0
    sim_speed: float = 0.0

    @property
    def ipc(self) -> float:
        """System IPC: total committed instructions over global cycles."""
        if self.cycles == 0:
            return 0.0
        return self.total_instructions / self.cycles

    @property
    def per_cpu_ipc(self) -> float:
        """Average per-processor IPC."""
        return self.ipc / max(self.cpu_count, 1)

    def l2_miss_ratio(self) -> float:
        """Aggregate demand L2 miss ratio across all chips."""
        misses = sum(result.l2.get("demand_misses", 0) for result in self.per_cpu)
        accesses = sum(result.l2.get("demand_accesses", 0) for result in self.per_cpu)
        if accesses == 0:
            return 0.0
        return misses / accesses

    def as_dict(self) -> Dict[str, object]:
        return {
            "config": self.config_name,
            "workload": self.workload_name,
            "cpus": self.cpu_count,
            "cycles": self.cycles,
            "instructions": self.total_instructions,
            "system_ipc": round(self.ipc, 4),
            "per_cpu_ipc": round(self.per_cpu_ipc, 4),
            "l2_miss_ratio": round(self.l2_miss_ratio(), 5),
            "system_bus_utilization": round(self.system_bus_utilization, 4),
            "coherence": self.coherence,
        }

    def to_dict(self) -> Dict[str, object]:
        """Full lossless serialisation (inverse of :meth:`from_dict`)."""
        payload = {
            f.name: getattr(self, f.name)
            for f in dataclass_fields(self)
            if f.name != "per_cpu"
        }
        payload["per_cpu"] = [result.to_dict() for result in self.per_cpu]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SmpResult":
        """Rebuild a result serialised by :meth:`to_dict`."""
        data = dict(payload)
        per_cpu = [SimResult.from_dict(item) for item in data.pop("per_cpu")]
        known = {f.name for f in dataclass_fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SmpResult fields: {sorted(unknown)}")
        return cls(per_cpu=per_cpu, **data)


class SmpSystem:
    """An N-way SMP built from one MachineConfig and N per-CPU traces.

    Each CPU is a :class:`~repro.core.pipeline.ProcessorCore` over its own
    L1/L2 hierarchy, built and warmed by
    :func:`~repro.model.simulator.build_cpu` exactly as a uniprocessor
    run is (the leading ``warmup_fraction`` of its trace, after
    pre-warming ``regions_per_cpu``), but all joined to one
    :class:`~repro.memory.coherence.CoherenceDomain`, then stepped in
    lock-step with the others by :meth:`run`.
    """

    def __init__(
        self,
        config: MachineConfig,
        traces: List[Trace],
        warmup_fraction: float = 0.0,
        regions_per_cpu: Optional[List[dict]] = None,
    ) -> None:
        if not traces:
            raise ConfigError("need at least one trace")
        if regions_per_cpu is not None and len(regions_per_cpu) != len(traces):
            raise ConfigError("one region map per cpu required")
        self.config = config
        self.traces = traces
        self.cpu_count = len(traces)

        self.domain = CoherenceDomain(
            config.system_bus, config.memory, line_bytes=config.l2.line_bytes
        )

        self.cores: List[ProcessorCore] = []
        #: Per CPU, the trace prefix spent warming state untimed.
        self.warmup_instructions: List[int] = []
        for cpu, trace in enumerate(traces):
            regions = regions_per_cpu[cpu] if regions_per_cpu is not None else None
            hierarchy, bht, timed = build_cpu(
                config, trace, warmup_fraction, regions, domain=self.domain, cpu=cpu
            )
            self.cores.append(
                ProcessorCore(timed, hierarchy, config.core, config.frontend, bht)
            )
            self.warmup_instructions.append(len(trace) - len(timed))

    def run(self, max_cycles: Optional[int] = None) -> SmpResult:
        """Step all processors in global cycle order until all finish."""
        started = time.perf_counter()
        cycle = step_cores(self.cores, max_cycles)
        elapsed = max(time.perf_counter() - started, 1e-9)

        # Per-CPU ``sim_speed`` stays 0: the system speed is on SmpResult.
        per_cpu = []
        for core, trace, warmup in zip(self.cores, self.traces, self.warmup_instructions):
            core.finalize_stats(cycle)
            per_cpu.append(
                SimResult.from_counts(
                    self.config.name, trace.name, core.snapshot(),
                    warmup_instructions=warmup,
                )
            )
        total_instructions = sum(result.instructions for result in per_cpu)

        workload = self.traces[0].name.rsplit("-cpu", 1)[0]
        return SmpResult(
            config_name=self.config.name,
            workload_name=workload,
            cpu_count=self.cpu_count,
            cycles=cycle,
            total_instructions=total_instructions,
            per_cpu=per_cpu,
            coherence=self.domain.stats.as_dict(),
            system_bus_utilization=self.domain.system_bus.utilization(cycle),
            sim_speed=total_instructions / elapsed,
        )


def run_smp(
    config: MachineConfig,
    traces: List[Trace],
    warmup_fraction: float = 0.1,
    regions_per_cpu: Optional[List[dict]] = None,
) -> SmpResult:
    """Warm each CPU on the leading fraction of its trace, then run.

    Each CPU is built and warmed by the same
    :func:`~repro.model.simulator.build_cpu` as :meth:`PerformanceModel.run`,
    so a one-CPU run reproduces the uniprocessor model's per-core results.
    """
    return SmpSystem(config, traces, warmup_fraction, regions_per_cpu).run()
