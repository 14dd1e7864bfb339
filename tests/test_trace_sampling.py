"""Unit tests for systematic trace sampling."""

import gc
import weakref

import pytest

from repro.common.errors import TraceError
from repro.core.pipeline import sum_snapshots
from repro.model.stats import SimResult
from repro.observe.categories import BASE
from repro.trace.record import make_alu
from repro.trace.sampling import SamplingPlan
from repro.trace.stream import Trace


def make_trace(count):
    return Trace([make_alu(0x1000 + 4 * i, dest=8, srcs=()) for i in range(count)])


def carve(period, sample_length):
    """A plan whose windows are exactly ``sample_length`` measured records."""
    return SamplingPlan(
        period=period, sample_length=sample_length, detail_warmup=0, drain_pad=0
    )


class TestSampleTrace:
    """Carving windows out of a trace: :meth:`SamplingPlan.windows` is the
    one carver (``run_sampled`` slices each window's records by it)."""

    def test_window_count(self):
        windows = list(carve(40, 10).windows(100))
        assert len(windows) == 3  # starts at 0, 40, 80

    def test_window_contents_contiguous(self):
        trace = make_trace(100)
        window = list(carve(40, 10).windows(len(trace)))[1]
        records = Trace(trace.records[window.detail_start : window.end])
        assert records[0].pc == 0x1000 + 4 * 40
        records.validate()

    def test_window_names_unique(self):
        # run_sampled names each window trace "<trace>#w<index>".
        indices = [window.index for window in carve(30, 5).windows(100)]
        assert indices == list(range(len(indices)))

    def test_invalid_params(self):
        with pytest.raises(TraceError):
            carve(0, 1)
        with pytest.raises(TraceError):
            carve(5, 6)

    def test_invalid_params_raise_eagerly(self):
        # Validation must not be deferred to the first next() call, or a
        # bad plan sits undetected until a worker finally consumes it.
        plan = None
        try:
            plan = carve(0, 1)
        except TraceError:
            pass
        assert plan is None

    def test_short_trace_no_windows(self):
        assert list(carve(100, 10).windows(5)) == []

    def test_returns_lazy_iterator(self):
        windows = carve(40, 10).windows(100)
        assert iter(windows) is windows  # a generator, not a list

    def test_windows_not_retained(self):
        """Peak live windows stays at one: consumed windows are collectable."""
        refs = []
        for window in carve(50, 25).windows(1000):
            refs.append(weakref.ref(window))
            del window
            gc.collect()
            alive = sum(1 for ref in refs if ref() is not None)
            assert alive == 0, f"{alive} previous windows still alive"
        assert len(refs) == 20


class TestSamplingPlan:
    def test_window_schedule(self):
        plan = SamplingPlan(
            period=100, sample_length=20, warmup=10, detail_warmup=8, drain_pad=4
        )
        windows = list(plan.windows(250))
        assert len(windows) == plan.window_count(250) == 3
        first = windows[0]
        assert first.start == 0
        assert first.detail_start == 10
        assert first.measure_start == 18
        assert first.measure_end == 38
        assert first.end == 42
        assert windows[1].start == 100
        assert first.measured_records == 20
        assert first.detailed_records == 32

    def test_key_is_stable(self):
        plan = SamplingPlan(period=200, sample_length=20)
        assert plan.key() == SamplingPlan(period=200, sample_length=20).key()
        assert plan.key() != SamplingPlan(period=200, sample_length=21).key()

    def test_span_must_fit_period(self):
        with pytest.raises(TraceError):
            SamplingPlan(period=100, sample_length=90, warmup=50)

    def test_rejects_nonpositive(self):
        with pytest.raises(TraceError):
            SamplingPlan(period=0, sample_length=1)
        with pytest.raises(TraceError):
            SamplingPlan(period=10, sample_length=0)
        with pytest.raises(TraceError):
            SamplingPlan(period=100, sample_length=10, warmup=-1)


class TestMergeIpc:
    def test_weighted_by_cycles(self, zero_snapshot):
        # window A: 100 insts / 100 cycles; window B: 100 insts / 300 cycles
        # aggregate = 200/400 = 0.5, not mean(1.0, 0.33)
        windows = [
            dict(zero_snapshot, instructions=100, cycles=cycles, cpi_stack={BASE: cycles})
            for cycles in (100, 300)
        ]
        totals = sum_snapshots(windows)
        assert SimResult.from_counts("cfg", "t", totals).ipc == pytest.approx(0.5)
        assert totals["cpi_stack"] == {BASE: 400}
