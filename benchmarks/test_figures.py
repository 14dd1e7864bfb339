"""Figures 7-18: every figure of the paper's §4, regenerated and graded.

One benchmark per figure key of ``repro figures``: it runs the figure
at benchmark scale, prints its table and its claim verdicts (run with
``-s`` to see them), and fails when a verdict fails the claims ledger's
gate (``repro.analysis.claims``): a FAIL, or a known gap that no longer
fails.
"""

import pytest

from conftest import SMP_CPUS, run_once

from repro.analysis.claims import format_verdicts, grade_figure
from repro.analysis.figures import FIGURES, run_figure


@pytest.mark.parametrize("key", list(FIGURES))
def test_figure(benchmark, key, workloads, runner):
    result = run_once(benchmark, run_figure, key, workloads, runner, SMP_CPUS)
    verdicts = grade_figure(key, result)
    print(f"\n{result.format_table()}")
    if verdicts:
        print(f"\n{format_verdicts(verdicts)}")
    gating = [verdict.claim.id for verdict in verdicts if verdict.gates]
    assert not gating, f"claims failing the gate: {gating}"
