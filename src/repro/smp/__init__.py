"""Symmetric-multiprocessor system model.

The paper's performance model "can be modeled for MP system performance
models" including "requests between L2 caches" (§2.1); the 16-processor
TPC-C runs of §4.3.4 are its headline system-level use.  This package
provides the :class:`SmpSystem` driver that joins N cores in one
:class:`~repro.memory.coherence.CoherenceDomain` (bus-snooping MOESI
between per-chip L2s, with cache-to-cache "move-out" transfers of dirty
lines, over a shared system bus and memory) and steps them in lock-step.
The domain itself belongs to the memory system: a uniprocessor is a
domain of one.
"""

from repro.smp.system import SmpResult, SmpSystem

__all__ = ["SmpSystem", "SmpResult"]
