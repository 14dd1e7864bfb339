"""SMP trace generation.

Builds one trace generator per processor for a multiprocessor run, the
way the paper's TPC-C (16P) experiments are driven
(:meth:`repro.analysis.workloads.Workload.smp_traces` draws the per-CPU
traces from them).  Every CPU runs the same
*kind* of work (transaction processing) but a distinct dynamic stream:

- each CPU gets its own seed fork, so code walks diverge;
- all CPUs share one :class:`SharedRegionGenerator`-addressed segment —
  the database buffer pool and lock words — sized and skewed per the
  profile, which is what creates the inter-L2 "move-out" traffic the
  paper's two-level-cache argument (§3.3) and the 16P L2 study (§4.3.4)
  depend on;
- private regions are *not* offset per CPU: ``cpu`` only forks each
  generator's RNG and names its trace, so every CPU's code, user data
  and kernel data sit at the same bases and overlap in the caches.
  ROADMAP item 1(b) proposes per-CPU user data and one code image
  shared by all CPUs.
"""

from __future__ import annotations

from typing import List

from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.trace.synth.data import SHARED_DATA_BASE, SharedRegionGenerator
from repro.trace.synth.generator import TraceGenerator
from repro.trace.synth.profiles import WorkloadProfile


def build_smp_generators(
    profile: WorkloadProfile,
    cpu_count: int,
    seed: int = 1,
) -> List[TraceGenerator]:
    """One :class:`TraceGenerator` per CPU, sharing the global region."""
    if cpu_count <= 0:
        raise ConfigError("cpu_count must be positive")
    if profile.shared_access_fraction <= 0 and cpu_count > 1:
        raise ConfigError(
            f"profile {profile.name!r} has no shared-access fraction; "
            "SMP traces would be trivially independent"
        )
    generators = []
    for cpu in range(cpu_count):
        shared = SharedRegionGenerator(
            DeterministicRng(seed).fork(1000 + cpu),
            profile.shared_region_bytes,
            base=SHARED_DATA_BASE,
        )
        generators.append(
            TraceGenerator(profile, seed=seed, cpu=cpu, shared_generator=shared)
        )
    return generators
