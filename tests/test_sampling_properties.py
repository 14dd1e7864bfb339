"""Property-based tests for the sampled-simulation machinery.

Window scheduling is pure arithmetic, so its invariants are checked over
a derandomized hypothesis corpus (the same idiom as
``test_observe_differential.py``): windows must be disjoint, internally
contiguous, in-bounds, evenly spaced, and agree with the closed-form
``window_count``.  On top of the schedule, sampled simulation itself
must be deterministic — same seed, same plan, bit-identical results —
whether the run happens in-process or in a worker pool.
"""

from __future__ import annotations

import os
import subprocess
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.runner import ExperimentRunner, ParallelRunner
from repro.analysis.workloads import workload_by_name
from repro.model.config import base_config
from repro.model.simulator import PerformanceModel
from repro.model.stats import SampledSimResult
from repro.trace.sampling import SamplingPlan


# ---------------------------------------------------------------------------
# Window-schedule invariants.
# ---------------------------------------------------------------------------

@st.composite
def plans(draw):
    """Valid plans only: the period is drawn at or above the span."""
    sample_length = draw(st.integers(min_value=1, max_value=300))
    warmup = draw(st.integers(min_value=0, max_value=300))
    detail_warmup = draw(st.integers(min_value=0, max_value=150))
    drain_pad = draw(st.integers(min_value=0, max_value=100))
    span = warmup + detail_warmup + sample_length + drain_pad
    period = draw(st.integers(min_value=span, max_value=span + 2000))
    return SamplingPlan(
        period=period,
        sample_length=sample_length,
        warmup=warmup,
        detail_warmup=detail_warmup,
        drain_pad=drain_pad,
    )


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(plan=plans(), trace_length=st.integers(min_value=0, max_value=20_000))
def test_window_schedule_invariants(plan: SamplingPlan, trace_length: int):
    windows = list(plan.windows(trace_length))

    # Count agrees with the closed form.
    assert len(windows) == plan.window_count(trace_length)

    previous_end = -1
    for index, window in enumerate(windows):
        # Indices are sequential and spacing is exactly the period.
        assert window.index == index
        assert window.start == index * plan.period

        # Contiguous internal structure.
        assert window.start <= window.detail_start
        assert window.detail_start <= window.measure_start
        assert window.measure_start < window.measure_end
        assert window.measure_end <= window.end
        assert window.warm_records == plan.warmup
        assert window.detailed_records == plan.detailed_per_window
        assert window.measured_records == plan.sample_length
        assert window.end - window.start == plan.span

        # In bounds and disjoint from the previous window.
        assert 0 <= window.start and window.end <= trace_length
        assert window.start > previous_end
        previous_end = window.end - 1

    # The schedule covers the expected fraction of the trace: every full
    # period contributes exactly one window until the tail can no longer
    # hold a whole span.
    if trace_length >= plan.span:
        expected = (trace_length - plan.span) // plan.period + 1
        assert len(windows) == expected
        measured = sum(w.measured_records for w in windows)
        assert measured == expected * plan.sample_length


@settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(plan=plans())
def test_no_windows_in_short_traces(plan: SamplingPlan):
    assert plan.window_count(plan.span - 1) == 0
    assert list(plan.windows(plan.span - 1)) == []
    assert plan.window_count(plan.span) == 1


# ---------------------------------------------------------------------------
# Determinism: serial == serial, serial == parallel, bit for bit.
# ---------------------------------------------------------------------------

_PLAN = SamplingPlan(period=2000, sample_length=150, warmup=200)


def _workload():
    workload = workload_by_name("SPECint95", warm=0, timed=30_000)
    workload.sampling = _PLAN
    return workload


def _deterministic_view(result: SampledSimResult) -> dict:
    """Everything except the one wall-clock-dependent field."""
    payload = result.to_dict()
    payload.pop("sim_speed")
    return payload


def test_sampled_run_is_deterministic():
    workload = _workload()
    model = PerformanceModel(base_config())
    first = model.run_sampled(workload.trace(), _PLAN, regions=workload.regions())
    second = model.run_sampled(workload.trace(), _PLAN, regions=workload.regions())
    assert _deterministic_view(first) == _deterministic_view(second)
    # The sampling record itself contains no wall-clock values at all.
    assert first.sampling == second.sampling
    assert first.estimates == second.estimates


def test_serial_and_parallel_runs_bit_identical():
    config = base_config()

    serial = ExperimentRunner()
    serial_result = serial.run(config, _workload())

    parallel = ParallelRunner(jobs=2, use_cache=False)
    try:
        workload = _workload()
        parallel.prefetch(up=[(config, workload)])
        parallel_result = parallel.run(config, workload)
    finally:
        parallel.close()

    assert isinstance(serial_result, SampledSimResult)
    assert isinstance(parallel_result, SampledSimResult)
    assert _deterministic_view(serial_result) == _deterministic_view(
        parallel_result
    )


_PAYLOAD_SCRIPT = """
import json
from repro.analysis.runner import ExperimentRunner
from repro.analysis.workloads import workload_by_name
from repro.model.config import base_config
from repro.trace.sampling import SamplingPlan
workload = workload_by_name("SPECint95", warm=0, timed=20_000)
workload.sampling = SamplingPlan(period=5_000, sample_length=300, warmup=400)
payload = ExperimentRunner().run(base_config(), workload).to_dict()
payload.pop("sim_speed")
print(json.dumps(payload))
"""


def test_payload_bytes_do_not_depend_on_hash_seed():
    """The result store writes ``json.dumps`` without ``sort_keys``, so
    every nested dict of a sampled payload must come out in the same
    order in every process, whatever ``PYTHONHASHSEED`` is."""
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", _PAYLOAD_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_sampling_participates_in_cache_key():
    plain = workload_by_name("SPECint95", warm=0, timed=30_000)
    sampled = _workload()
    assert plain.cache_key() != sampled.cache_key()
    other_plan = SamplingPlan(period=2000, sample_length=151, warmup=200)
    other = _workload()
    other.sampling = other_plan
    assert sampled.cache_key() != other.cache_key()
