"""One benchmark operation, run in a fresh interpreter.

``run.py`` spawns this script once per measured operation, so each one
starts from the state a user's ``repro`` command starts from: no trace,
workload or result memo survives from an earlier repetition.

    python3 perfbench/op.py --workload run-tpcc --seed 2003 --out result.json
        [--trace] [--setup-only] [--workdir DIR]

The script imports the simulator and builds the workload's config and
``Workload`` objects (set-up), stamps the monotonic clock (ready), runs
the operation through public entry points only, then checks and
summarises the simulated results into ``--out`` as JSON.  With
``--trace`` the layer boundaries are wrapped (see ``spans.py``) and the
per-layer split is added to the output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402  (the benchmark's own module, beside this file)

# -- workload parameters ------------------------------------------------
#
# Instruction counts mirror the CLI defaults of the command each
# workload stands for (``repro run``: 100K warm + 25K timed; ``repro
# smp``: 20K + 6K per CPU; ``repro sweeps bht``: the ``run`` defaults).
# detail-spec instead uses a short warm-up and a long timed window so
# the detailed core loop carries most of the host time.
DETAIL_SPEC = ("SPECint2000", 5_000, 60_000)
RUN_TPCC = ("TPC-C", 100_000, 25_000)
SMP_CPUS = 4
SMP_WARM, SMP_TIMED = 20_000, 6_000
SWEEP_JOBS = 2


def setup(workload: str, seed: int) -> dict:
    """Import the simulator and build config and workload objects."""
    from repro.analysis import smp_workload, workload_by_name
    from repro.model.config import base_config

    state = {"config": base_config()}
    if workload == "detail-spec":
        name, warm, timed = DETAIL_SPEC
        state["workload"] = workload_by_name(name, seed=seed, warm=warm, timed=timed)
    elif workload in ("run-tpcc", "sweep-bht-tpcc"):
        name, warm, timed = RUN_TPCC
        state["workload"] = workload_by_name(name, seed=seed, warm=warm, timed=timed)
    elif workload == "smp-tpcc-4p":
        state["workload"] = smp_workload(SMP_CPUS, seed=seed, warm=SMP_WARM, timed=SMP_TIMED)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return state


# -- operations ----------------------------------------------------------


def run_up(state: dict, workdir: Path) -> dict:
    """``repro run <workload>``: one uniprocessor model run."""
    from repro.model.simulator import PerformanceModel

    workload = state["workload"]
    result = PerformanceModel(state["config"]).run(
        workload.trace(),
        warmup_fraction=workload.warmup_fraction,
        regions=workload.regions(),
    )
    return {"results": [result], "points": 1, "cpus": 1}


def run_smp_op(state: dict, workdir: Path) -> dict:
    """``repro smp --cpus 4``: per-CPU traces, then the lock-step SMP."""
    from repro.smp.system import run_smp

    workload = state["workload"]
    traces, regions = workload.smp_traces(SMP_CPUS)
    result = run_smp(
        state["config"],
        traces,
        warmup_fraction=workload.warmup_fraction,
        regions_per_cpu=regions,
    )
    return {"smp": result, "regions": regions, "points": 1, "cpus": SMP_CPUS}


def run_sweep(state: dict, workdir: Path) -> dict:
    """``repro sweeps bht`` on a fresh cache, then again from that cache."""
    from repro.analysis import ParallelRunner, bht_size_sweep, workload_by_name

    jobs = min(SWEEP_JOBS, os.cpu_count() or 1)
    cache_dir = workdir / "cache"
    passes = []
    first = state["workload"]
    # The second pass gets a new Workload too, so no trace memo carries over.
    again = workload_by_name(
        first.name,
        seed=first.seed,
        warm=first.warm_instructions,
        timed=first.timed_instructions,
    )
    for workload in (first, again):
        started = time.perf_counter()
        runner = ParallelRunner(jobs=jobs, cache_dir=str(cache_dir))
        try:
            sweep = bht_size_sweep(runner=runner, workload=workload)
        finally:
            runner.close()
        passes.append(
            {
                "sweep": sweep,
                "results": runner.cached_results(),
                "stats": runner.stats,
                "seconds": time.perf_counter() - started,
            }
        )
    return {"passes": passes, "jobs": jobs, "points": len(passes[0]["sweep"].points), "cpus": 1}


OPERATIONS = {
    "detail-spec": run_up,
    "run-tpcc": run_up,
    "smp-tpcc-4p": run_smp_op,
    "sweep-bht-tpcc": run_sweep,
}


# -- checks and summaries -----------------------------------------------


def _without_speed(payload: dict) -> dict:
    """A result dict minus its host-time field (``sim_speed``)."""
    clean = {key: value for key, value in payload.items() if key != "sim_speed"}
    if "per_cpu" in clean:
        clean["per_cpu"] = [_without_speed(item) for item in clean["per_cpu"]]
    return clean


def _digest(payloads: List[dict]) -> str:
    text = json.dumps([_without_speed(p) for p in payloads], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _conservation_errors(results, where: str) -> List[str]:
    errors = []
    for index, result in enumerate(results):
        core = result.core
        if sum(core.cpi_stack.values()) != core.cycles:
            errors.append(
                f"{where}[{index}]: CPI stack sums to {sum(core.cpi_stack.values())}"
                f" cycles, run has {core.cycles}"
            )
    return errors


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _up_counts(results) -> Dict[str, float]:
    """Simulated per-layer counts, each the mean over uniprocessor results."""
    from repro.observe.categories import CPI_CATEGORIES

    rows = []
    for result in results:
        row = {
            "memory.l1d_miss_ratio": _ratio(
                result.l1d["demand_misses"], result.l1d["demand_accesses"]
            ),
            "memory.l2_demand_miss_ratio": _ratio(
                result.l2["demand_misses"], result.l2["demand_accesses"]
            ),
            "frontend.bht_mispredict_ratio": result.bht_misprediction_ratio,
            "smp.c2c_transfers": 0,
            "smp.bus_utilization": result.system_bus_utilization,
        }
        for category in CPI_CATEGORIES:
            row[f"core.cpi_stack.{category}"] = _ratio(
                result.core.cpi_stack.get(category, 0), result.instructions
            )
        rows.append(row)
    return {key: sum(row[key] for row in rows) / len(rows) for key in rows[0]}


def _smp_counts(result) -> Dict[str, float]:
    """Simulated per-layer counts of an SMP run, summed over its CPUs."""
    from repro.observe.categories import CPI_CATEGORIES

    per_cpu = result.per_cpu

    def total(cache: str, key: str) -> int:
        return sum(getattr(item, cache)[key] for item in per_cpu)

    counts = {
        "memory.l1d_miss_ratio": _ratio(
            total("l1d", "demand_misses"), total("l1d", "demand_accesses")
        ),
        "memory.l2_demand_miss_ratio": _ratio(
            total("l2", "demand_misses"), total("l2", "demand_accesses")
        ),
        "frontend.bht_mispredict_ratio": _ratio(
            sum(item.core.branch_mispredictions for item in per_cpu),
            sum(item.core.conditional_branches for item in per_cpu),
        ),
        "smp.c2c_transfers": result.coherence.get("cache_to_cache", 0),
        "smp.bus_utilization": result.system_bus_utilization,
    }
    for category in CPI_CATEGORIES:
        counts[f"core.cpi_stack.{category}"] = _ratio(
            sum(item.core.cpi_stack.get(category, 0) for item in per_cpu),
            result.total_instructions,
        )
    return counts


def summarise(workload: str, state: dict, outcome: dict) -> dict:
    """Digest, correctness errors, simulated figures and work done."""
    errors: List[str] = []
    covered = state["workload"].total_instructions * outcome["cpus"]
    if "smp" in outcome:
        smp = outcome["smp"]
        errors += _conservation_errors(smp.per_cpu, "smp.per_cpu")
        return {
            "digest": _digest([smp.to_dict()]),
            "errors": errors,
            "sim_ipc": smp.ipc,
            "instructions": covered,
            "counts": _smp_counts(smp),
            "committed": smp.total_instructions,
            "cycles": smp.cycles,
        }
    if "passes" in outcome:
        cold, cached = outcome["passes"]
        for label, sweep_pass in (("cold", cold), ("cached", cached)):
            if sweep_pass["sweep"].missing:
                errors.append(f"{label} pass skipped {sweep_pass['sweep'].missing}")
        cold_payloads = {str(k): v.to_dict() for k, v in cold["results"].items()}
        cached_payloads = {str(k): v.to_dict() for k, v in cached["results"].items()}
        if cold_payloads != cached_payloads or cold["sweep"].series != cached["sweep"].series:
            errors.append("cached pass differs from cold pass")
        hit_ratios = [_hit_ratio(p["stats"]) for p in (cold, cached)]
        if hit_ratios != [0.0, 1.0]:
            errors.append(f"cache hit ratios {hit_ratios}, expected [0.0, 1.0]")
        results = [cold["results"][key] for key in sorted(cold["results"])]
        errors += _conservation_errors(results, "sweep")
        return {
            "digest": _digest([cold_payloads[key] for key in sorted(cold_payloads)]),
            "errors": errors,
            "sim_ipc": sum(r.ipc for r in results) / len(results),
            "instructions": covered * len(results),
            "counts": _up_counts(results),
            "committed": sum(r.instructions for r in results),
            "cycles": sum(r.cycles for r in results),
            "hit_ratio": hit_ratios[1],
            "busy_seconds": cold["stats"].total_run_seconds,
            "cold_seconds": cold["seconds"],
            "jobs": outcome["jobs"],
        }
    results = outcome["results"]
    errors += _conservation_errors(results, workload)
    return {
        "digest": _digest([r.to_dict() for r in results]),
        "errors": errors,
        "sim_ipc": results[0].ipc,
        "instructions": covered,
        "counts": _up_counts(results),
        "committed": results[0].instructions,
        "cycles": results[0].cycles,
    }


def _hit_ratio(stats) -> float:
    """Disk-cache hits over disk-cache lookups of one sweep pass."""
    return _ratio(stats.disk_hits, stats.disk_hits + stats.misses)


# -- tracing ------------------------------------------------------------


def install_tracer(workdir: Path) -> spans.Tracer:
    """Wrap every layer boundary the per-layer metrics are named after."""
    tracer = spans.Tracer(workdir)
    tracer.wrap_class_method(
        "repro.trace.synth.generator", "TraceGenerator.generate", "trace.synth",
        count=lambda args, result: len(result),
    )
    tracer.wrap_function("repro.model.simulator", "prewarm_regions", "model.prewarm")
    tracer.wrap_function("repro.model.simulator", "warm_structures", "model.functional_warm")
    tracer.wrap_function(
        "repro.core.pipeline", "functional_warm", "model.functional_warm",
        count=lambda args, result: result,
    )
    tracer.wrap_function("repro.model.simulator", "build_hierarchy", "model.build")
    try:
        from repro.core.pipeline import ProcessorCore
    except ImportError:
        tracer.notes.append("ProcessorCore not found; core.detail and core build not traced")
    else:
        cores = spans.subclasses(ProcessorCore)
        tracer.wrap_methods(cores, ["__init__"], "model.build")
        tracer.wrap_methods(cores, ["run", "run_measured"], "core.detail")
    tracer.wrap_class_method("repro.smp.system", "SmpSystem.run", "smp.run")
    tracer.wrap_class_method("repro.analysis.cache", "ResultCache.store", "analysis.cache_store")
    tracer.wrap_class_method("repro.analysis.cache", "ResultCache.load", "analysis.cache_load")
    return tracer


def _prewarm_lines(state: dict, outcome: dict) -> int:
    """Cache lines the pre-warmed regions span, from ``Workload.regions()``."""
    line = state["config"].l2.line_bytes
    if "regions" in outcome:
        region_sets = outcome["regions"]
    else:
        region_sets = [state["workload"].regions()] * outcome["points"]
    return sum(
        len(range(base, base + size, line))
        for regions in region_sets
        for base, size in regions.values()
    )


def layer_split(tracer: spans.Tracer, workload: str, state: dict, outcome: dict,
                summary: dict) -> dict:
    """Per-layer metrics of one traced operation."""
    # Snapshot first: counting pre-warm lines below may generate a trace.
    batches = [list(tracer.spans)] + spans.load_worker_spans(tracer.workdir)
    self_s: Dict[str, float] = {}
    work: Dict[str, int] = {}
    for batch in batches:
        for name, seconds in spans.self_times(batch).items():
            self_s[name] = self_s.get(name, 0.0) + seconds
        for name, count in spans.counts(batch).items():
            work[name] = work.get(name, 0) + count
    if workload == "sweep-bht-tpcc" and len(batches) == 1:
        tracer.notes.append("no spans from pool workers (not forked?); worker layers read 0")

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    lines = _prewarm_lines(state, outcome)
    cpu_cycles = summary["cycles"] * outcome["cpus"] if "smp" in outcome else 0
    return {
        "trace.synth_s": s("trace.synth"),
        "trace.synth_ips": _ratio(work.get("trace.synth", 0), s("trace.synth")),
        "model.prewarm_s": s("model.prewarm"),
        "model.prewarm_lines": lines,
        "model.prewarm_ns_per_line": _ratio(s("model.prewarm") * 1e9, lines),
        "model.functional_warm_s": s("model.functional_warm"),
        "model.functional_warm_ips": _ratio(
            work.get("model.functional_warm", 0), s("model.functional_warm")
        ),
        "model.build_s": s("model.build"),
        "core.detail_s": s("core.detail"),
        "core.detail_ips": _ratio(summary["committed"], s("core.detail")),
        "core.host_ns_per_sim_cycle": _ratio(s("core.detail") * 1e9, summary["cycles"]),
        "smp.run_s": s("smp.run"),
        "smp.loop_ips": _ratio(summary["committed"], s("smp.run")),
        "smp.host_ns_per_cpu_cycle": _ratio(s("smp.run") * 1e9, cpu_cycles),
        "analysis.worker_busy_frac": (
            _ratio(summary["busy_seconds"], summary["jobs"] * summary["cold_seconds"])
            if "busy_seconds" in summary else 0.0
        ),
        "analysis.cache_store_s": s("analysis.cache_store"),
        "analysis.cache_load_s": s("analysis.cache_load"),
        "analysis.cache_hit_ratio": summary.get("hit_ratio", 0.0),
        "bench.unattributed_s": s("op"),
    }


# -- entry point ----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPERATIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    state = setup(args.workload, args.seed)
    ready = time.monotonic()
    report = {"ready": ready}
    if not args.setup_only:
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        tracer = install_tracer(workdir) if args.trace else None
        root = tracer.open("op") if tracer else None
        started = time.perf_counter()
        outcome = OPERATIONS[args.workload](state, workdir)
        wall = time.perf_counter() - started
        if tracer:
            tracer.close(root)
        summary = summarise(args.workload, state, outcome)
        report.update(
            wall_s=wall,
            digest=summary["digest"],
            errors=summary["errors"],
            sim_ipc=summary["sim_ipc"],
            instructions=summary["instructions"],
            counts=summary["counts"],
            self_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if tracer:
            report["layers"] = layer_split(tracer, args.workload, state, outcome, summary)
            report["notes"] = tracer.notes
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
