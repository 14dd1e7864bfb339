"""Job specs carry full content, and the round trip is exact.

A :class:`~repro.analysis.runner.ParallelRunner` submits every point
it fans out as a job spec, so any configuration a sweep derives — not
just the registry entries — must survive JSON encoding with its
identity intact: the decoded configuration's ``content_hash()`` and the
decoded workload's ``cache_key()`` are exactly the originals', which
keeps :func:`~repro.service.jobs.spec_key` byte-identical to the
result-cache key of the run.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.cache import ResultCache
from repro.analysis.workloads import standard_workloads, workload_by_name
from repro.common.errors import ConfigError
from repro.isa.opcodes import OpClass
from repro.model.config import base_config, named_configs
from repro.service.jobs import (
    job_spec,
    make_spec,
    spec_config,
    spec_key,
    spec_label,
    spec_workload,
)
from repro.trace.sampling import SamplingPlan


def _through_json(spec: dict) -> dict:
    return json.loads(json.dumps(spec))


def _configs():
    configs = {name: factory() for name, factory in named_configs().items()}
    base = base_config()
    configs["latency-overrides"] = base.derived(
        "latency-overrides",
        core=base.core.derived(
            latency_overrides={OpClass.INT_MUL: 7, OpClass.FP_DIV: 30}
        ),
    )
    return configs


def _workload_variants():
    for workload in standard_workloads(warm=2_000, timed=800):
        yield f"{workload.name}-plain", workload
    for workload in standard_workloads(warm=2_000, timed=800):
        workload.sample_seed = 7
        yield f"{workload.name}-sample-seed", workload
    for workload in standard_workloads(warm=0, timed=20_000):
        workload.sampling = SamplingPlan(period=4000, sample_length=200, warmup=300)
        yield f"{workload.name}-sampled", workload


@pytest.mark.parametrize("name, config", list(_configs().items()))
def test_config_round_trip_keeps_content_hash(name, config):
    workload = workload_by_name("SPECint95", warm=2_000, timed=800)
    decoded = spec_config(_through_json(job_spec(config, workload)))
    assert decoded == config
    assert decoded.content_hash() == config.content_hash()


def test_latency_override_keys_decode_to_enums():
    config = _configs()["latency-overrides"]
    workload = workload_by_name("SPECint95", warm=2_000, timed=800)
    decoded = spec_config(_through_json(job_spec(config, workload)))
    assert decoded.core.latency_overrides == {OpClass.INT_MUL: 7, OpClass.FP_DIV: 30}
    assert all(isinstance(op, OpClass) for op in decoded.core.latency_overrides)


@pytest.mark.parametrize("name, workload", list(_workload_variants()))
def test_workload_round_trip_keeps_cache_key(name, workload):
    decoded = spec_workload(_through_json(job_spec(base_config(), workload)))
    assert decoded.cache_key() == workload.cache_key()
    assert decoded.sample_seed == workload.sample_seed
    assert decoded.sampling == workload.sampling


def test_spec_key_is_the_result_cache_key(tmp_path):
    cache = ResultCache(str(tmp_path))
    config = _configs()["latency-overrides"]
    workload = workload_by_name("TPC-C", warm=2_000, timed=800)
    up = _through_json(job_spec(config, workload))
    assert spec_key(up, cache) == cache.key(
        "up", config.content_hash(), workload.cache_key()
    )
    smp = _through_json(job_spec(config, workload, cpus=4))
    assert spec_key(smp, cache) == cache.key(
        "smp", config.content_hash(), workload.cache_key(), 4
    )
    assert spec_label(smp) == "TPC-Cx4P@latency-overrides"


def test_make_spec_validates_names_and_stores_content():
    spec = make_spec("SPECfp95", config="issue-2way", warm=2_000, timed=800)
    assert spec == job_spec(
        named_configs()["issue-2way"](),
        workload_by_name("SPECfp95", warm=2_000, timed=800),
    )
    with pytest.raises(ConfigError, match="unknown config"):
        make_spec("SPECfp95", config="no-such-machine")
    with pytest.raises(ConfigError, match="unknown workload"):
        make_spec("SPECweb")
