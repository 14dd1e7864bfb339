"""Synthetic workload generation.

The paper drives its model with SPEC CPU95/CPU2000 traces (captured with
Shade) and TPC-C traces (captured with Fujitsu's kernel tracer, covering
both application and OS code).  Those traces are unavailable, so this
package generates seeded synthetic traces whose *statistical shape*
matches each suite: instruction mix, static code footprint, branch-pattern
predictability, data working-set size, and memory-access patterns
(stride / chain / random / hot).

The generator is two-layered, mirroring how real traces arise:

1. :mod:`repro.trace.synth.code` builds a static code image — basic
   blocks, functions, and statically-placed branches with per-branch
   behaviour models.
2. :mod:`repro.trace.synth.generator` walks that image dynamically,
   maintaining a call stack, kernel-mode excursions, register dependence
   chains, and data-address streams, emitting a control-flow-consistent
   dynamic instruction stream.
"""

from repro.trace.synth.profiles import (
    SPEC_FP_2000,
    SPEC_FP_95,
    SPEC_INT_2000,
    SPEC_INT_95,
    TPCC,
    WorkloadProfile,
    profile_by_name,
    standard_profiles,
)
from repro.trace.synth.generator import TraceGenerator, generate_trace
from repro.trace.synth.smp import build_smp_generators

__all__ = [
    "WorkloadProfile",
    "SPEC_INT_95",
    "SPEC_FP_95",
    "SPEC_INT_2000",
    "SPEC_FP_2000",
    "TPCC",
    "profile_by_name",
    "standard_profiles",
    "TraceGenerator",
    "generate_trace",
    "build_smp_generators",
]
