"""Shared fixtures for the per-figure benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints
the reproduced rows/series (run with ``-s`` to see them).  Workload sizes
are chosen so the full suite completes in minutes on a laptop; set
``REPRO_BENCH_SCALE`` (default 1.0) to scale the trace lengths.
"""

import os

import pytest

from repro.analysis.runner import ParallelRunner
from repro.analysis.workloads import standard_workloads

#: Scale factor for trace lengths (REPRO_BENCH_SCALE env var).
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Worker processes for independent runs (REPRO_BENCH_JOBS env var).
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

#: Persistent result cache directory; empty/unset disables caching so
#: benchmarks measure real simulation time by default.
CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE", "")

#: Untimed warm-up prefix per workload.
WARM = int(100_000 * SCALE)
#: Timed window per workload.
TIMED = int(25_000 * SCALE)

#: CPU count of the TPC-C SMP row of Figures 14/15.
SMP_CPUS = int(os.environ.get("REPRO_BENCH_SMP_CPUS", "16"))


@pytest.fixture(scope="session")
def workloads():
    """The five standard uniprocessor workloads at benchmark scale."""
    return standard_workloads(warm=WARM, timed=TIMED)


@pytest.fixture(scope="session")
def runner():
    """Session-wide result cache shared by every figure.

    Set ``REPRO_BENCH_JOBS=N`` to fan independent runs over N worker
    processes and ``REPRO_BENCH_CACHE=dir`` to persist results across
    benchmark sessions.
    """
    return ParallelRunner(
        jobs=JOBS,
        verbose=True,
        cache_dir=CACHE_DIR or None,
        use_cache=bool(CACHE_DIR),
    )


def run_once(benchmark, fn, *args, **kwargs):
    """Run a whole-figure reproduction exactly once under the benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
