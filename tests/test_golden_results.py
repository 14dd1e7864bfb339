"""Golden-result regression tests.

``tests/golden/base_config.json`` pins the exact statistics of tiny
(5k-instruction) base-configuration runs of every standard workload,
one 2-processor TPC-C run and one sampled SPECint95 run.  Each entry
holds the rounded ``as_dict()`` summary (readable diffs) and a
``payload_sha256`` of the full ``to_dict()`` payload (every counter,
per-CPU and per-window field included).  The simulator is
deterministic, so any difference from the golden file means the
model's numbers drifted —
deliberately (re-bless with ``REPRO_UPDATE_GOLDEN=1 pytest
tests/test_golden_results.py``) or by accident (this test fails with a
field-by-field diff).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.analysis.runner import ExperimentRunner
from repro.analysis.workloads import smp_workload, standard_workloads, workload_by_name
from repro.model.config import base_config
from repro.trace.sampling import SamplingPlan

GOLDEN_PATH = Path(__file__).parent / "golden" / "base_config.json"

#: 5k-instruction windows: 4k functional warm-up + 1k timed.
WARM = 4_000
TIMED = 1_000
SMP_CPUS = 2
SMP_WARM = 2_000
SMP_TIMED = 600
#: Sampled SPECint95: four windows over a 20k-instruction trace.
SAMPLED_TIMED = 20_000
SAMPLED_PLAN = SamplingPlan(period=5_000, sample_length=300, warmup=400)

UPDATE = bool(os.environ.get("REPRO_UPDATE_GOLDEN"))


def payload_sha256(result) -> str:
    """sha256 of ``result.to_dict()`` minus the wall-clock ``sim_speed``
    (per-CPU entries included), as sorted-key JSON."""
    payload = result.to_dict()
    payload.pop("sim_speed")
    for cpu in payload.get("per_cpu", ()):
        cpu.pop("sim_speed")
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def pinned(result, summary: dict) -> dict:
    """One golden entry: the rounded summary plus the full-payload hash."""
    return {**summary, "payload_sha256": payload_sha256(result)}


def compute_current() -> dict:
    """Regenerate every pinned statistic from the current model."""
    runner = ExperimentRunner()
    config = base_config()
    workloads = {}
    for workload in standard_workloads(warm=WARM, timed=TIMED):
        result = runner.run(config, workload)
        workloads[workload.name] = pinned(result, result.as_dict(include_speed=False))
    smp_result = runner.run_smp(
        config, smp_workload(SMP_CPUS, warm=SMP_WARM, timed=SMP_TIMED), SMP_CPUS
    )
    sampled_workload = workload_by_name("SPECint95", warm=0, timed=SAMPLED_TIMED)
    sampled_workload.sampling = SAMPLED_PLAN
    sampled_result = runner.run(config, sampled_workload)
    return {
        "_meta": {
            "config": config.name,
            "warm": WARM,
            "timed": TIMED,
            "smp": {"cpus": SMP_CPUS, "warm": SMP_WARM, "timed": SMP_TIMED},
        },
        "workloads": workloads,
        "smp": pinned(smp_result, smp_result.as_dict()),
        "sampled": {
            # Not in "_meta", which must equal the CPI-stack golden's.
            "_meta": {"timed": SAMPLED_TIMED, "plan": SAMPLED_PLAN.key()},
            "SPECint95": pinned(
                sampled_result, sampled_result.as_dict(include_speed=False)
            ),
        },
    }


def diff_tables(golden: dict, current: dict) -> list:
    """Readable per-field differences between two nested stat tables."""
    lines = []
    for section in sorted(set(golden) | set(current)):
        gold_section = golden.get(section)
        new_section = current.get(section)
        if gold_section == new_section:
            continue
        if not (isinstance(gold_section, dict) and isinstance(new_section, dict)):
            lines.append(f"{section}: golden={gold_section!r} current={new_section!r}")
            continue
        for field in sorted(set(gold_section) | set(new_section)):
            gold = gold_section.get(field, "<absent>")
            new = new_section.get(field, "<absent>")
            if gold != new:
                lines.append(f"{section}.{field}: golden={gold!r} current={new!r}")
    return lines


@pytest.fixture(scope="module")
def current() -> dict:
    return compute_current()


def test_golden_file_exists():
    if UPDATE:
        pytest.skip("update mode: file is being rewritten")
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing; generate it with "
        "REPRO_UPDATE_GOLDEN=1 pytest tests/test_golden_results.py"
    )


def test_base_config_matches_golden(current):
    if UPDATE:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        pytest.skip(f"golden file rewritten at {GOLDEN_PATH}")
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

    differences = diff_tables(golden["workloads"], current["workloads"])
    differences += diff_tables(
        {"smp": golden["smp"]}, {"smp": current["smp"]}
    )
    differences += diff_tables(golden["sampled"], current["sampled"])
    assert not differences, (
        "model statistics drifted from tests/golden/base_config.json:\n  "
        + "\n  ".join(differences)
        + "\nIf the change is intentional, re-bless with "
        "REPRO_UPDATE_GOLDEN=1 pytest tests/test_golden_results.py"
    )


def test_golden_covers_all_standard_workloads(current):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert set(golden["workloads"]) == set(current["workloads"]) == {
        "SPECint95",
        "SPECfp95",
        "SPECint2000",
        "SPECfp2000",
        "TPC-C",
    }


def test_golden_sanity_bounds():
    """The pinned numbers themselves must be physically plausible."""
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    for name, stats in golden["workloads"].items():
        assert 0.0 < stats["ipc"] <= 4.0, name
        for ratio_key in (
            "l1i_miss_ratio",
            "l1d_miss_ratio",
            "l2_miss_ratio",
            "bht_misprediction_ratio",
        ):
            assert 0.0 <= stats[ratio_key] <= 1.0, f"{name}.{ratio_key}"
    assert golden["smp"]["cpus"] == SMP_CPUS
    assert 0.0 < golden["smp"]["system_ipc"] <= 4.0 * SMP_CPUS
