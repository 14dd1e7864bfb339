"""Trace infrastructure.

The paper's performance model is trace-driven: its input is an instruction
trace captured on a physical machine (SPEC traces via Shade, TPC-C traces
via Fujitsu's kernel tracer).  Neither tool nor workload is available, so
this package provides (a) the trace representation and file format, and
(b) seeded synthetic generators whose output reproduces the published
*characteristics* of each workload suite — instruction mix, code/data
footprints, branch predictability, and memory-access patterns.
"""

from repro.trace.record import TraceRecord, NO_REG, NO_ADDR
from repro.trace.stream import Trace, TraceStats
from repro.trace.io import read_trace, write_trace
from repro.trace.sampling import SampleWindow, SamplingPlan

__all__ = [
    "TraceRecord",
    "NO_REG",
    "NO_ADDR",
    "Trace",
    "TraceStats",
    "read_trace",
    "write_trace",
    "SampleWindow",
    "SamplingPlan",
]
