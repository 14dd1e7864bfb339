"""Property-based differential test of the observability layer.

Randomized synthetic traces are lowered to executable test programs by
the ReverseTracer and replayed through both verification paths
(:func:`repro.verify.cross_check`): the execution-driven logic-simulator
analog and the trace-driven performance model.  For every seed/profile
draw the two paths must agree on cycles *and* produce byte-identical CPI
stacks — the accountant is a pure function of pipeline state, so any
divergence is an observability bug even when the timing matches.
The determinism property is also checked on random small machines
(issue width, window, RS/LSQ sizes, forwarding, perfect prediction,
prefetch) so the core is driven on shapes no named configuration covers.
A one-CPU SMP run must reproduce the uniprocessor model's per-core
results on the standard workloads and on the same random machines.

Hypothesis draws are seeded and bounded (small traces, few examples) so
the suite stays CI-fast while still exploring the profile × seed space.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.workloads import standard_workloads
from repro.frontend.bht import BHT_4K_2W_1T, BHT_16K_4W_2T
from repro.model.config import base_config
from repro.model.perfect import perfect_variants
from repro.model.simulator import PerformanceModel
from repro.observe.cpistack import total
from repro.smp.system import run_smp
from repro.trace.stream import Trace
from repro.trace.synth import generate_trace, standard_profiles
from repro.verify import LogicSimulator, ReverseTracer, cross_check

_PROFILES = sorted(standard_profiles())

#: Keep each example small: the value is in the seed/profile diversity.
_TRACE_LEN = 600


def _synth_program(profile_name: str, seed: int):
    trace = generate_trace(
        standard_profiles()[profile_name], _TRACE_LEN, seed=seed
    )
    program, _fidelity = ReverseTracer().generate(trace)
    return program


@given(
    profile=st.sampled_from(_PROFILES),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(
    max_examples=8,
    deadline=None,
    derandomize=True,  # fixed corpus: reproducible in CI
    suppress_health_check=[HealthCheck.too_slow],
)
def test_paths_agree_on_cycles_and_cpi_stack(profile, seed):
    """cross_check enforces cycle AND CPI-stack agreement; both conserve."""
    program = _synth_program(profile, seed)
    result = cross_check(program, max_steps=4 * _TRACE_LEN)
    assert result.cycles > 0
    assert total(result.core.cpi_stack) == result.cycles


@st.composite
def small_configs(draw):
    """Random small machines: the core on shapes the named configs skip."""
    base = base_config()
    issue = draw(st.sampled_from((2, 4)))
    core = base.core.derived(
        issue_width=issue,
        commit_width=issue,
        window_size=draw(st.sampled_from((16, 32, 64))),
        rsa_entries=draw(st.sampled_from((4, 10))),
        rsbr_entries=draw(st.sampled_from((3, 6))),
        load_queue=draw(st.sampled_from((6, 16))),
        store_queue=draw(st.sampled_from((5, 10))),
        data_forwarding=draw(st.booleans()),
    )
    bht = draw(st.sampled_from((BHT_4K_2W_1T, BHT_16K_4W_2T)))
    frontend = dataclasses.replace(
        base.frontend, perfect_prediction=draw(st.booleans())
    )
    return base.derived(
        "prop",
        core=core,
        bht=bht,
        frontend=frontend,
        prefetch=base.prefetch if draw(st.booleans()) else
        dataclasses.replace(base.prefetch, enabled=False),
    )


_DETERMINISM_PROFILES = ("SPECint95", "SPECfp95", "TPC-C")

_DETERMINISM_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _assert_deterministic_and_conserving(config, profile, seed, length):
    trace = generate_trace(standard_profiles()[profile], length, seed=seed)
    model = PerformanceModel(config)
    first = model.run(Trace(trace.records, name="t"), warmup_fraction=0.2)
    second = model.run(Trace(trace.records, name="t"), warmup_fraction=0.2)
    assert first.as_dict(include_speed=False) == second.as_dict(
        include_speed=False
    )
    assert first.core.cpi_stack == second.core.cpi_stack
    assert total(first.core.cpi_stack) == first.cycles


@given(
    profile=st.sampled_from(_DETERMINISM_PROFILES),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    length=st.integers(min_value=500, max_value=3_000),
)
@_DETERMINISM_SETTINGS
def test_stack_is_deterministic(profile, seed, length):
    """The same trace simulated twice on the base machine yields identical
    results, and its CPI stack sums to the cycle count."""
    _assert_deterministic_and_conserving(base_config(), profile, seed, length)


@given(
    config=small_configs(),
    profile=st.sampled_from(_DETERMINISM_PROFILES),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    length=st.integers(min_value=500, max_value=3_000),
)
@_DETERMINISM_SETTINGS
def test_random_small_machines_are_deterministic(config, profile, seed, length):
    """The same property on random small machines."""
    _assert_deterministic_and_conserving(config, profile, seed, length)


@given(
    profile=st.sampled_from(_PROFILES),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(
    max_examples=4,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_execution_driven_path_conserves(profile, seed):
    """The logic-simulator analog conserves cycles on replayed programs."""
    program = _synth_program(profile, seed)
    result = LogicSimulator(max_steps=4 * _TRACE_LEN).run(program)
    assert total(result.core.cpi_stack) == result.cycles


def _assert_one_cpu_smp_matches_uniprocessor(config, trace, warmup_fraction, regions=None):
    """A 1-CPU SMP run and the uniprocessor model agree per core.

    Both build the core from the same config, warm it through the same
    warm-up, step it through the same loop and read it back through the
    same result builder, so every per-core field — statistics, CPI
    stack, cache counters, TLB and BHT ratios, bus utilisations,
    prefetches and warm-up length — must be identical.  Only the host
    speed differs: an SMP run reports it for the whole system.
    """
    up = PerformanceModel(config).run(trace, warmup_fraction, regions=regions)
    smp = run_smp(
        config,
        [trace],
        warmup_fraction,
        regions_per_cpu=None if regions is None else [regions],
    ).per_cpu[0]
    assert smp.sim_speed == 0.0

    def payload(result):
        return {k: v for k, v in result.to_dict().items() if k != "sim_speed"}

    assert payload(smp) == payload(up)


@pytest.mark.parametrize("perfect", [False, True], ids=["base", "perfectAll"])
@pytest.mark.parametrize("workload", standard_workloads(warm=2000, timed=1000),
                         ids=lambda workload: workload.name)
def test_one_cpu_smp_matches_uniprocessor(workload, perfect):
    """Every standard workload, on the base and the all-perfect machine."""
    config = perfect_variants(base_config())[-1] if perfect else base_config()
    _assert_one_cpu_smp_matches_uniprocessor(
        config, workload.trace(), workload.warmup_fraction, workload.regions()
    )


@given(
    config=small_configs(),
    profile=st.sampled_from(_DETERMINISM_PROFILES),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    length=st.integers(min_value=500, max_value=3_000),
)
@_DETERMINISM_SETTINGS
def test_one_cpu_smp_matches_uniprocessor_on_small_machines(config, profile, seed, length):
    """The same agreement on random small machines (perfect prediction drawn)."""
    trace = generate_trace(standard_profiles()[profile], length, seed=seed)
    _assert_one_cpu_smp_matches_uniprocessor(config, trace, 0.2)
