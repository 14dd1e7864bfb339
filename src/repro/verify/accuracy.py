"""Accuracy tracking (Figure 19).

Two studies, run through an :class:`~repro.analysis.runner.ExperimentRunner`
and rendered by :func:`repro.analysis.figures.fig19_accuracy`:

- :func:`version_estimate_history` — the upper graph: performance
  estimates of model versions v1…v8 on SPEC CPU2000 traces, normalised to
  v8.  Estimates decrease as rigidity improves, except the v5 bump from
  the special-instruction remodelling.

- :func:`accuracy_history` — the lower graph: model error against the
  "physical machine" over the verification phase.  With no silicon
  available, the physical machine is the final model run on a *different
  sample* of each workload (:func:`machine_workload`) — so the terminal
  error is the honest sampling error (paper: 3.9% for SPECfp2000, 4.2%
  for SPECint2000), not a trivially zero self-comparison.  Intermediate
  phases carry the kinds of memory-system parameter mistakes the paper
  describes being fixed ("memory access latency, bus width, and
  outstanding numbers").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.analysis.runner import ExperimentRunner
from repro.analysis.workloads import Workload
from repro.memory.params import BusParams, MemoryParams
from repro.model.config import MachineConfig, base_config
from repro.verify.fidelity import MODEL_VERSIONS, model_version

#: Machine-seed offset: the "physical machine" executes a different
#: sample of the same workload than the traces fed to the model.
MACHINE_SEED_OFFSET = 7919


@dataclass
class AccuracyPoint:
    """One (phase, workload) accuracy measurement; ``None`` cycles mark a
    run the failure policy abandoned."""

    phase: str
    workload: str
    model_cycles: Optional[int]
    machine_cycles: Optional[int]

    @property
    def error(self) -> Optional[float]:
        """Relative cycle error of the model versus the machine."""
        if self.model_cycles is None or self.machine_cycles is None:
            return None
        if self.machine_cycles == 0:
            return 0.0
        return (self.model_cycles - self.machine_cycles) / self.machine_cycles

    @property
    def abs_error(self) -> Optional[float]:
        return None if self.error is None else abs(self.error)


def machine_workload(workload: Workload) -> Workload:
    """The machine's sample of ``workload``: the same profile, seed and
    sizes, another dynamic sample, and no trace cached yet."""
    seed = workload.seed + MACHINE_SEED_OFFSET
    return replace(workload, sample_seed=seed, _generator=None, _trace=None)


def _cycles(
    runner: ExperimentRunner, config: MachineConfig, workload: Workload
) -> Optional[int]:
    result = runner.try_run(config, workload)
    return None if result is None else result.cycles


def version_estimate_history(
    workloads: List[Workload], runner: ExperimentRunner
) -> Dict[str, Dict[str, Optional[float]]]:
    """Fig. 19 (upper): per-version performance relative to v8.

    Returns ``{workload: {version: perf_ratio}}`` where performance is
    1/cycles normalised so v8 = 1.0; ``None`` where a run was abandoned.
    Prefetch :func:`fig19_runs` first to fan the runs out over workers.
    """
    versions = [model_version(label) for label in MODEL_VERSIONS]
    history: Dict[str, Dict[str, Optional[float]]] = {}
    for workload in workloads:
        cycles = {c.name: _cycles(runner, c, workload) for c in versions}
        v8 = cycles["v8"]
        history[workload.name] = {
            label: None if v8 is None or value is None else v8 / value if value else 0.0
            for label, value in cycles.items()
        }
    return history


def _phase_configs(final: MachineConfig) -> Dict[str, MachineConfig]:
    """Hardware-parameter states across the verification phase, by label.

    Each phase fixes one class of memory-system parameter mistakes, the
    way the paper describes the lower graph's abrupt changes.
    """
    return {
        # Phase A: processor-side latencies optimistic, memory latency
        # badly underestimated, bus width wrong.
        "phaseA": final.derived(
            "phaseA",
            l1d=final.l1d.scaled(hit_latency=final.l1d.hit_latency - 1),
            l2=final.l2.scaled(hit_latency=final.l2.hit_latency - 4),
            memory=MemoryParams(latency=140, channels=final.memory.channels,
                                channel_occupancy=final.memory.channel_occupancy),
            system_bus=BusParams("system", latency=10, bytes_per_cycle=16),
        ),
        # Phase B: L1 latency corrected; L2/memory still off, outstanding
        # numbers (MSHRs) wrong.
        "phaseB": final.derived(
            "phaseB",
            l2=final.l2.scaled(mshr_count=4, hit_latency=final.l2.hit_latency - 2),
            l1d=final.l1d.scaled(mshr_count=2),
        ),
        # Phase C: near-final; only system-bus latency is slightly off.
        "phaseC": final.derived(
            "phaseC",
            system_bus=BusParams(
                "system",
                latency=final.system_bus.latency + 6,
                bytes_per_cycle=final.system_bus.bytes_per_cycle,
            ),
        ),
        # Final: all parameters reflect the built machine.  This is the
        # upper graph's v8 model, so its runs are v8's runs.
        "final": model_version("v8", final),
    }


def accuracy_history(
    workloads: List[Workload], runner: ExperimentRunner
) -> List[AccuracyPoint]:
    """Fig. 19 (lower): model-vs-machine error over verification phases."""
    final = base_config()
    machine = final.derived("machine")
    phases = _phase_configs(final)
    points: List[AccuracyPoint] = []
    for workload in workloads:
        machine_cycles = _cycles(runner, machine, machine_workload(workload))
        points += [
            AccuracyPoint(
                phase, workload.name, _cycles(runner, config, workload), machine_cycles
            )
            for phase, config in phases.items()
        ]
    return points


def fig19_runs(workloads: List[Workload]) -> List[Tuple[MachineConfig, Workload]]:
    """Every run of both histories, for one prefetch: each model version and
    verification phase on each workload, and the machine on its sample."""
    final = base_config()
    models = [model_version(label) for label in MODEL_VERSIONS]
    models += _phase_configs(final).values()
    return [(config, w) for w in workloads for config in models] + [
        (final.derived("machine"), machine_workload(w)) for w in workloads
    ]
