"""The standard workload set used throughout the evaluation.

A :class:`Workload` couples a synthetic profile with generation
parameters (seed, warm-up length, timed length) and caches its generated
traces, so every experiment that touches, say, SPECint95 runs the *same*
dynamic stream — the paper's consistency argument for using a single
performance model applies equally to inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import ConfigError
from repro.trace.sampling import SamplingPlan
from repro.trace.stream import Trace
from repro.trace.synth import TraceGenerator, WorkloadProfile, standard_profiles

#: Default warm-up prefix (functional, untimed) per workload.
DEFAULT_WARM = 100_000
#: Default timed window per workload.
DEFAULT_TIMED = 25_000
#: Default seed for the standard suite.
DEFAULT_SEED = 2003  # the paper's publication year


@dataclass
class Workload:
    """One named workload: profile + trace generation parameters."""

    name: str
    profile: WorkloadProfile
    seed: int = DEFAULT_SEED
    warm_instructions: int = DEFAULT_WARM
    timed_instructions: int = DEFAULT_TIMED
    #: Dynamic-sample seed; None = same as ``seed``.  A different sample
    #: seed yields a different capture of the *same* static program.
    sample_seed: Optional[int] = None
    #: When set, uniprocessor runs use SMARTS-style sampled simulation
    #: with this schedule instead of a full detailed run.
    sampling: Optional[SamplingPlan] = None
    _generator: Optional[TraceGenerator] = field(default=None, repr=False)
    _trace: Optional[Trace] = field(default=None, repr=False)

    def cache_key(self) -> str:
        """Stable identity for result caches: name, parameters, profile.

        Includes a content hash of the profile so two workloads sharing
        a name but differing in any statistical parameter never alias.
        """
        from repro.common.hashing import content_hash

        return "|".join(
            (
                self.name,
                f"seed={self.seed}",
                f"sample={self.sample_seed}",
                f"warm={self.warm_instructions}",
                f"timed={self.timed_instructions}",
                f"sampling={self.sampling.key() if self.sampling else 'none'}",
                f"profile={content_hash(self.profile)}",
            )
        )

    @property
    def total_instructions(self) -> int:
        return self.warm_instructions + self.timed_instructions

    @property
    def warmup_fraction(self) -> float:
        return self.warm_instructions / self.total_instructions

    def generator(self) -> TraceGenerator:
        if self._generator is None:
            self._generator = TraceGenerator(
                self.profile, seed=self.seed, sample_seed=self.sample_seed
            )
        return self._generator

    def trace(self) -> Trace:
        """The full (warm + timed) trace, generated once and cached."""
        if self._trace is None:
            generator = self.generator()
            self._trace = generator.generate(self.total_instructions, name=self.name)
        return self._trace

    def regions(self) -> dict:
        """Memory regions for steady-state pre-warming."""
        generator = self.generator()
        if self._trace is None:
            self.trace()
        return generator.memory_regions()

    def smp_traces(self, cpu_count: int):
        """Per-CPU (traces, regions) for SMP runs (not cached)."""
        from repro.trace.synth.smp import build_smp_generators

        generators = build_smp_generators(self.profile, cpu_count, seed=self.seed)
        traces = [
            generator.generate(
                self.total_instructions,
                name=f"{self.profile.name}-{cpu_count}P-cpu{generator.cpu}",
            )
            for generator in generators
        ]
        regions = [generator.memory_regions() for generator in generators]
        return traces, regions


def spec_workloads(
    seed: int = DEFAULT_SEED,
    warm: int = DEFAULT_WARM,
    timed: int = DEFAULT_TIMED,
) -> List[Workload]:
    """SPECint95, SPECfp95, SPECint2000, SPECfp2000."""
    profiles = standard_profiles()
    return [
        Workload(name, profiles[name], seed, warm, timed)
        for name in ("SPECint95", "SPECfp95", "SPECint2000", "SPECfp2000")
    ]


def tpcc_workload(
    seed: int = DEFAULT_SEED,
    warm: int = DEFAULT_WARM,
    timed: int = DEFAULT_TIMED,
) -> Workload:
    """The TPC-C OLTP workload (uniprocessor trace)."""
    return Workload("TPC-C", standard_profiles()["TPC-C"], seed, warm, timed)


def smp_workload(
    cpu_count: int,
    seed: int = DEFAULT_SEED,
    warm: int = DEFAULT_WARM,
    timed: int = DEFAULT_TIMED,
) -> Workload:
    """TPC-C scaled for an SMP run, named like the paper ("TPC-C (16P)")."""
    return Workload(
        f"TPC-C ({cpu_count}P)", standard_profiles()["TPC-C"], seed, warm, timed
    )


def standard_workloads(
    seed: int = DEFAULT_SEED,
    warm: int = DEFAULT_WARM,
    timed: int = DEFAULT_TIMED,
) -> List[Workload]:
    """The five uniprocessor workloads of the evaluation."""
    return spec_workloads(seed, warm, timed) + [tpcc_workload(seed, warm, timed)]


def workload_by_name(name: str, sample_seed: Optional[int] = None, **kwargs) -> Workload:
    """Construct one standard workload by its paper name."""
    for workload in standard_workloads(**kwargs):
        if workload.name == name:
            workload.sample_seed = sample_seed
            return workload
    raise ConfigError(f"unknown workload {name!r}")
