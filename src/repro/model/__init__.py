"""The assembled performance model.

This package corresponds to the paper's "software performance model"
(§2.1): the detailed processor model plus the equally detailed memory
system model, assembled from :mod:`repro.core`, :mod:`repro.frontend`
and :mod:`repro.memory`, configured by a :class:`MachineConfig` whose
defaults reproduce Table 1.
"""

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
from repro.model.stats import SimResult
from repro.model.simulator import PerformanceModel
from repro.model.perfect import StallBreakdown

__all__ = [
    "MachineConfig",
    "base_config",
    "issue_2way",
    "bht_4k_2w_1t",
    "l1_32k_1w_3c",
    "l2_off_8m_2w",
    "l2_off_8m_1w",
    "prefetch_off",
    "one_rs",
    "PerformanceModel",
    "SimResult",
    "StallBreakdown",
]
