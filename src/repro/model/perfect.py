"""Execution-time breakdown via perfect-structure models (Figure 7).

The paper characterises each workload by running the model with
progressively idealised structures: "We modeled a perfect L2 cache, a
perfect L1 cache, perfect TLB, and perfect branch prediction, and then
evaluate several models to find out the penalty of stalls."

The decomposition, matching Figure 7's four categories:

- ``sx``       = cycles(base) − cycles(perfect L2): stalls caused by L2
  misses (serviced by the SX-unit, hence the name);
- ``ibs_tlb``  = cycles(perfect L2) − cycles(perfect L1 + TLB): stalls
  caused by L1 misses and TLB walks;
- ``branch``   = cycles(perfect L1 + TLB) − cycles(… + perfect branch
  prediction): stalls caused by branch prediction failures;
- ``core``     = cycles with everything perfect: execution time in the
  I-unit and E-unit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from repro.model.config import MachineConfig


@dataclass
class StallBreakdown:
    """Fractions of base execution time per Figure 7 category."""

    trace_name: str
    base_cycles: int
    core: float
    branch: float
    ibs_tlb: float
    sx: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "core": round(self.core, 4),
            "branch": round(self.branch, 4),
            "ibs/tlb": round(self.ibs_tlb, 4),
            "sx": round(self.sx, 4),
        }

    def validate(self) -> None:
        total = self.core + self.branch + self.ibs_tlb + self.sx
        assert abs(total - 1.0) < 1e-6, f"breakdown does not sum to 1: {total}"


def perfect_variants(config: MachineConfig) -> List[MachineConfig]:
    """The four models of the decomposition: base → everything perfect."""
    return [
        config,
        config.derived(f"{config.name}+perfectL2", perfect_l2=True),
        config.derived(
            f"{config.name}+perfectL1",
            perfect_l1=True,
            perfect_l2=True,
            perfect_tlb=True,
        ),
        config.derived(
            f"{config.name}+perfectAll",
            perfect_l1=True,
            perfect_l2=True,
            perfect_tlb=True,
            frontend=replace(config.frontend, perfect_prediction=True),
        ),
    ]


def breakdown_from_cycles(
    trace_name: str,
    base_cycles: int,
    perfect_l2_cycles: int,
    perfect_l1_cycles: int,
    perfect_all_cycles: int,
) -> StallBreakdown:
    """Assemble the Figure 7 decomposition from the four cycle counts."""
    # Idealising a structure can never be allowed to *increase* time in
    # the decomposition; clamp tiny modelling inversions to zero.
    sx = max(base_cycles - perfect_l2_cycles, 0)
    ibs_tlb = max(perfect_l2_cycles - perfect_l1_cycles, 0)
    branch = max(perfect_l1_cycles - perfect_all_cycles, 0)
    core = base_cycles - sx - ibs_tlb - branch

    return StallBreakdown(
        trace_name=trace_name,
        base_cycles=base_cycles,
        core=core / base_cycles,
        branch=branch / base_cycles,
        ibs_tlb=ibs_tlb / base_cycles,
        sx=sx / base_cycles,
    )
