"""The repository benchmark: end-to-end and per-layer simulator speed.

    python3 perfbench/run.py --workload run-tpcc --seed 2003 --seconds 20 --trace 0

Runs one workload closed-loop for ``--seconds``: each operation is a
fresh interpreter (``op.py``) started only after the previous one has
ended.  Prints every metric by name with its unit, then, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports the per-layer split.  See
``README.md`` beside this file for the workloads and metrics.

Exits 2 without a result when the simulator cannot be imported.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("detail-spec", "run-tpcc", "smp-tpcc-4p", "sweep-bht-tpcc")
#: Set-up is timed in at least this many fresh interpreters per run.
SETUP_SAMPLES = 7
#: Every operation must end within this many seconds of the run's start,
#: so a run ends within three minutes even when an operation hangs.
RUN_LIMIT_S = 170.0
RSS_POLL_S = 0.05


def tree_rss_kb(pid: int) -> int:
    """Resident set of ``pid`` plus all its descendants, in KiB."""
    total = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children", encoding="ascii") as handle:
                    pending.extend(int(child) for child in handle.read().split())
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
    return total


def wait_for_group(pgid: int, limit_s: float = 5.0) -> None:
    """Wait until no process of group ``pgid`` is left (killed workers
    are reaped by init, not by us), for at most ``limit_s``."""
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class Operation:
    """One spawned ``op.py``: its report, set-up time and peak memory."""

    def __init__(self, args: List[str], timeout: float, out: Path) -> None:
        self.report: Optional[dict] = None
        self.setup_s = 0.0
        self.peak_rss_kb = 0
        self.error = ""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        spawned = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, str(BENCH / "op.py"), "--out", str(out)] + args,
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            while True:
                try:
                    process.wait(timeout=RSS_POLL_S)
                    break
                except subprocess.TimeoutExpired:
                    self.peak_rss_kb = max(self.peak_rss_kb, tree_rss_kb(process.pid))
                    if time.monotonic() - spawned > timeout:
                        self.error = f"timed out after {timeout:.0f}s"
                        break
        finally:
            # The operation's whole process group: the operation and any
            # pool workers it left behind.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
            wait_for_group(process.pid)
        if self.error:
            return
        if process.returncode != 0:
            self.error = f"exit code {process.returncode}"
            return
        with open(out, encoding="utf-8") as handle:
            self.report = json.load(handle)
        self.setup_s = self.report["ready"] - spawned
        self.peak_rss_kb = max(self.peak_rss_kb, self.report.get("self_rss_kb", 0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="SPARC64 V model benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = BENCH / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path, started: float) -> int:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    counter = itertools.count()

    def spawn(extra: List[str]) -> Operation:
        index = next(counter)
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        return Operation(
            base + ["--workdir", str(workdir / f"op{index}")] + extra,
            timeout=max(remaining, 1.0),
            out=workdir / f"op{index}.json",
        )

    # Also fills the bytecode caches, so later set-ups read them.
    preflight = spawn(["--setup-only"])
    if preflight.report is None:
        print(f"cannot set up the simulator: {preflight.error}", file=sys.stderr)
        return 2

    untraced: List[Operation] = []
    traced: List[Operation] = []
    setups: List[float] = []
    failures: List[str] = []
    failed = 0
    digest = None
    measuring = time.monotonic()
    while True:
        elapsed = time.monotonic() - measuring
        need_traced = args.trace and not traced
        if elapsed >= args.seconds and untraced and not need_traced:
            break
        tracing = bool(args.trace) and len(traced) < len(untraced)
        op = spawn(["--trace"] if tracing else [])
        (traced if tracing else untraced).append(op)
        label = f"{'traced ' if tracing else ''}op {len(untraced) + len(traced)}"
        if op.report is None:
            failures.append(f"{label}: {op.error}")
            failed += 1
            continue
        setups.append(op.setup_s)
        report = op.report
        digest = digest or report["digest"]
        problems = list(report["errors"])
        if report["digest"] != digest:
            problems.append("simulated-statistics digest differs from the first operation")
        if problems:
            failures.extend(f"{label}: {problem}" for problem in problems)
            failed += 1
            op.report = None
        print(
            f"{label}: wall {report['wall_s']:.3f} s, set-up {op.setup_s:.3f} s, "
            f"peak {op.peak_rss_kb / 1024:.1f} MB",
            file=sys.stderr,
        )
        if time.monotonic() - started > RUN_LIMIT_S:
            break
    setup_only = 0
    while len(setups) < SETUP_SAMPLES:
        setup_only += 1
        op = spawn(["--setup-only"])
        if op.report is None:
            failures.append(f"set-up: {op.error}")
            failed += 1
            break
        setups.append(op.setup_s)

    attempted = len(untraced) + len(traced) + setup_only
    ok = [op for op in untraced if op.report]
    ok_traced = [op for op in traced if op.report]
    if not ok or (args.trace and not ok_traced):
        for failure in failures:
            print(f"FAILED {failure}", file=sys.stderr)
        print("no operation succeeded; no result", file=sys.stderr)
        return 1

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        layers = {
            name: statistics.median([op.report["layers"][name] for op in ok_traced])
            for name in ok_traced[0].report["layers"]
        }
        traced_wall = statistics.median([op.report["wall_s"] for op in ok_traced])
        layers["bench.traced_wall_s"] = traced_wall
        layers["bench.tracing_overhead_s"] = traced_wall - statistics.median(
            [op.report["wall_s"] for op in ok]
        )
        layers["error_rate"] = failed / attempted
        layers["sim_ipc"] = ok[0].report["sim_ipc"]
        layers.update(ok[0].report["counts"])
        values = layers
        for note in sorted({n for op in ok_traced for n in op.report["notes"]}):
            print(f"note: {note}")
    else:
        values = {
            "wall_s": statistics.median([op.report["wall_s"] for op in ok]),
            "setup_s": statistics.median(setups),
            "e2e_ips": statistics.median([op.report["instructions"] / op.report["wall_s"] for op in ok]),
            "peak_rss_mb": statistics.median([op.peak_rss_kb / 1024 for op in ok]),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for failure in failures:
        print(f"FAILED {failure}")
    print(
        f"{args.workload} seed {args.seed}: {len(ok)} untraced and {len(ok_traced)} "
        f"traced operations, {len(setups)} set-ups, error_rate "
        f"{failed / attempted:.3f}, sim_ipc {ok[0].report['sim_ipc']:.6f}"
    )
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
