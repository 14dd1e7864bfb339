"""Systematic trace sampling (SMARTS-style).

The paper samples its TPC-C traces ("We followed TPC guidelines during
system setup in order to generate realistic traces and sampled these
traces").  This module provides the scheduling half of a SMARTS-style
sampled simulator: a :class:`SamplingPlan` describes a systematic
schedule of measurement windows — every ``period`` instructions, warm
micro-architectural state functionally over a ``warmup`` prefix, prime
the pipeline in detailed mode over a short ``detail_warmup`` span, then
measure ``sample_length`` instructions in detail; everything between
windows is fast-forwarded.  The simulation half lives in
:meth:`repro.model.simulator.PerformanceModel.run_sampled`, and the
statistics in :mod:`repro.analysis.estimate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.common.errors import TraceError


@dataclass(frozen=True)
class SampleWindow:
    """One scheduled window: record indices into the sampled trace.

    ``[start, detail_start)`` is warmed functionally (caches, TLBs, BHT
    — no timing), ``[detail_start, end)`` runs through the detailed
    core, and statistics are measured over ``[measure_start,
    measure_end)`` only: the leading ``detail_start..measure_start``
    span primes the pipeline and the trailing ``measure_end..end`` pad
    keeps fetch fed so the measured span has no end-of-trace drain
    artefact.
    """

    index: int
    start: int
    detail_start: int
    measure_start: int
    measure_end: int
    end: int

    @property
    def warm_records(self) -> int:
        return self.detail_start - self.start

    @property
    def detailed_records(self) -> int:
        return self.end - self.detail_start

    @property
    def measured_records(self) -> int:
        return self.measure_end - self.measure_start


@dataclass(frozen=True)
class SamplingPlan:
    """Parameters of a systematic sampling schedule.

    ``period``
        Distance in instructions between successive measurement-window
        starts.
    ``sample_length``
        Instructions measured in detail per window.
    ``warmup``
        Instructions functionally warmed (caches/TLBs/BHT, no timing)
        immediately before each window.
    ``detail_warmup`` / ``drain_pad``
        Detailed-mode instructions run before/after the measured span to
        hide the pipeline fill and drain transients from the
        measurement.  The defaults suit the ~50-entry window core; they
        count toward the detailed-instruction budget.
    """

    period: int
    sample_length: int
    warmup: int = 0
    detail_warmup: int = 64
    drain_pad: int = 32

    def __post_init__(self) -> None:
        if self.period <= 0 or self.sample_length <= 0:
            raise TraceError("period and sample_length must be positive")
        if self.warmup < 0 or self.detail_warmup < 0 or self.drain_pad < 0:
            raise TraceError("warmup/detail_warmup/drain_pad must be >= 0")
        if self.span > self.period:
            raise TraceError(
                f"window span {self.span} (warmup {self.warmup} + detail "
                f"{self.detail_warmup} + length {self.sample_length} + pad "
                f"{self.drain_pad}) cannot exceed period {self.period}"
            )

    @property
    def span(self) -> int:
        """Total records consumed by one window (warm + detailed)."""
        return self.warmup + self.detail_warmup + self.sample_length + self.drain_pad

    @property
    def detailed_per_window(self) -> int:
        return self.detail_warmup + self.sample_length + self.drain_pad

    def key(self) -> str:
        """Stable token for result-cache keys."""
        return (
            f"p{self.period}.l{self.sample_length}.w{self.warmup}"
            f".d{self.detail_warmup}.t{self.drain_pad}"
        )

    def window_count(self, trace_length: int) -> int:
        """Number of windows the schedule places in ``trace_length``."""
        if trace_length < self.span:
            return 0
        return (trace_length - self.span) // self.period + 1

    def windows(self, trace_length: int) -> Iterator[SampleWindow]:
        """Yield the systematic window schedule for a trace."""
        start = 0
        index = 0
        while start + self.span <= trace_length:
            detail_start = start + self.warmup
            measure_start = detail_start + self.detail_warmup
            yield SampleWindow(
                index=index,
                start=start,
                detail_start=detail_start,
                measure_start=measure_start,
                measure_end=measure_start + self.sample_length,
                end=start + self.span,
            )
            start += self.period
            index += 1
