"""CPI-stack accountant tests: conservation, classification, helpers.

The conservation invariant is the load-bearing property: every simulated
cycle is attributed to exactly one category, and the attributed cycles
sum to ``CoreStats.cycles`` with exact integer equality — for every
standard workload, for SMP runs (including the early-finisher drain
tail), and for hand-built corner-case traces.
"""

from __future__ import annotations

import pytest

from repro.analysis.runner import ExperimentRunner
from repro.analysis.workloads import smp_workload, standard_workloads
from repro.core.pipeline import ProcessorCore
from repro.frontend.bht import BranchHistoryTable
from repro.model.config import base_config
from repro.model.simulator import PerformanceModel, build_hierarchy
from repro.observe import categories as cat
from repro.observe.cpistack import (
    ConservationError,
    collapse_fig7,
    fractions,
    merge,
    new_stack,
    ordered_items,
    prune,
    render_stack,
    render_stack_table,
    total,
    verify_conservation,
)
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace
from repro.isa.opcodes import OpClass

WARM = 4_000
TIMED = 1_000


def make_alu_loop(iterations: int = 10, body: int = 63, base: int = 0x1000) -> Trace:
    """A warm loop of independent ALU ops ending in a backward jump."""
    records = []
    for _ in range(iterations):
        pc = base
        for i in range(body):
            records.append(
                TraceRecord(pc, OpClass.INT_ALU, dest=8 + (i % 8), srcs=(1,))
            )
            pc += 4
        records.append(
            TraceRecord(pc, OpClass.BRANCH_UNCOND, taken=True, target=base)
        )
    return Trace(records, name="alu-loop")


# ---------------------------------------------------------------------------
# The acceptance invariant: conservation on every benchmark workload.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "workload",
    standard_workloads(warm=WARM, timed=TIMED),
    ids=lambda w: w.name,
)
def test_conservation_every_standard_workload(workload):
    """sum(cpi_stack) == cycles, exactly, for each benchmark workload."""
    result = ExperimentRunner().run(base_config(), workload)
    stack = result.core.cpi_stack
    assert stack, "accountant produced an empty stack"
    assert total(stack) == result.core.cycles
    assert all(count > 0 for count in stack.values()), "pruning leaked zeros"
    assert set(stack) <= set(cat.CPI_CATEGORIES)
    # At least one instruction committed, so base cycles must exist.
    assert stack[cat.BASE] > 0


def test_conservation_smp_per_cpu():
    """Each SMP core conserves cycles against the *global* cycle count."""
    result = ExperimentRunner().run_smp(
        base_config(), smp_workload(2, warm=2_000, timed=600), 2
    )
    cycle_counts = {r.core.cycles for r in result.per_cpu}
    assert len(cycle_counts) == 1, "SMP cores must share the end cycle"
    for cpu in result.per_cpu:
        assert total(cpu.core.cpi_stack) == cpu.core.cycles
    # The cores finish at different times; at least one must carry an
    # explicit drain tail (cycles spent waiting for its peers).
    assert any(cat.DRAIN in r.core.cpi_stack for r in result.per_cpu)
    merged = merge([r.core.cpi_stack for r in result.per_cpu])
    assert total(merged) == sum(r.core.cycles for r in result.per_cpu)


def test_conservation_small_config(small_config):
    trace = make_alu_loop(iterations=20)
    core = ProcessorCore(
        trace,
        build_hierarchy(small_config),
        small_config.core,
        small_config.frontend,
        BranchHistoryTable(small_config.bht),
    )
    stats = core.run()
    assert total(stats.cpi_stack) == stats.cycles


# ---------------------------------------------------------------------------
# Classification sanity on traces with a known dominant behaviour.
# ---------------------------------------------------------------------------


def _run_trace(config, records, name):
    return PerformanceModel(config).run(
        Trace(records, name=name), warmup_fraction=0.0
    )


def test_alu_loop_is_mostly_base_and_core(table1_config):
    """Independent ALU ops: cycles go to base/exec/frontend, not memory."""
    result = _run_trace(
        table1_config, make_alu_loop(iterations=30).records, "alu"
    )
    stack = result.core.cpi_stack
    assert total(stack) == result.core.cycles
    memory = sum(
        stack.get(c, 0)
        for c in (cat.DCACHE_L2, cat.DCACHE_REMOTE, cat.DCACHE_MEM)
    )
    assert memory == 0
    assert stack[cat.BASE] > 0


def test_dependent_long_latency_chain_charges_exec(table1_config):
    """A serial FP-divide chain is execution latency, not memory."""
    records = []
    pc = 0x2000
    for i in range(80):
        records.append(
            TraceRecord(pc, OpClass.FP_DIV, dest=40, srcs=(40,))
        )
        pc += 4
    result = _run_trace(table1_config, records, "fpdiv-chain")
    stack = result.core.cpi_stack
    assert total(stack) == result.core.cycles
    assert stack[cat.EXEC] > stack.get(cat.DCACHE_L1, 0)
    assert stack[cat.EXEC] > stack[cat.BASE]


def test_pointer_chase_charges_memory_levels(table1_config):
    """Serially-dependent loads over a large footprint stall on memory."""
    records = []
    pc = 0x3000
    stride = 8192 + 64  # defeat the stride prefetcher and the L1
    for i in range(200):
        records.append(
            TraceRecord(
                pc, OpClass.LOAD, dest=9, srcs=(9,), ea=0x10_0000 + i * stride
            )
        )
        pc += 4
    result = _run_trace(table1_config, records, "chase")
    stack = result.core.cpi_stack
    assert total(stack) == result.core.cycles
    memory = sum(
        stack.get(c, 0)
        for c in (cat.DCACHE_L1, cat.DCACHE_L2, cat.DCACHE_MEM)
    )
    assert memory > stack[cat.BASE]


def test_store_chain_charges_exec_not_store_data(table1_config):
    """Stores fed by a divide chain charge exec, never store_data.

    The store's data producer is always older, and commit is in order,
    so by the time a store reaches the window head its producer has
    committed and the data is ready — the wait shows up while the
    *producer* is at the head (exec), and ``store_data`` stays zero.
    The category remains as a tripwire: cycles appearing there would
    mean the commit discipline changed.
    """
    records = []
    pc = 0x4000
    for i in range(40):
        records.append(TraceRecord(pc, OpClass.FP_DIV, dest=40, srcs=(40,)))
        pc += 4
        records.append(
            TraceRecord(pc, OpClass.STORE, srcs=(1, 40), ea=0x20_0000 + i * 8)
        )
        pc += 4
    result = _run_trace(table1_config, records, "store-chain")
    stack = result.core.cpi_stack
    assert total(stack) == result.core.cycles
    assert stack.get(cat.STORE_DATA, 0) == 0
    assert stack[cat.EXEC] > 0


def test_mispredict_cycles_appear_for_random_branches(table1_config):
    """Alternating-taken branches defeat the BHT; dead time is charged."""
    records = []
    pc = 0x5000
    for i in range(120):
        records.append(TraceRecord(pc, OpClass.INT_ALU, dest=8, srcs=(1,)))
        records.append(
            TraceRecord(
                pc + 4,
                OpClass.BRANCH_COND,
                taken=(i % 2 == 0),
                target=pc + 16 if i % 2 == 0 else 0,
            )
        )
        if i % 2 == 0:
            pc += 16
        else:
            pc += 8
    result = _run_trace(table1_config, records, "mispredicts")
    stack = result.core.cpi_stack
    assert total(stack) == result.core.cycles
    assert result.core.branch_mispredictions > 0
    assert stack.get(cat.BRANCH_MISPREDICT, 0) > 0


# ---------------------------------------------------------------------------
# The invariant actually bites: a corrupted stack raises.
# ---------------------------------------------------------------------------


def test_finalize_raises_on_corrupted_stack(small_config):
    core = ProcessorCore(
        make_alu_loop(iterations=5),
        build_hierarchy(small_config),
        small_config.core,
        small_config.frontend,
        BranchHistoryTable(small_config.bht),
    )
    cycle = 0
    while not core.finished:
        if not core.step_cycle(cycle):
            cycle = core._next_cycle(cycle)
        else:
            cycle += 1
    core._stack[cat.BASE] += 3  # sabotage the books
    with pytest.raises(ConservationError) as excinfo:
        core.finalize_stats(cycle)
    message = str(excinfo.value)
    assert "+3" in message and "base" in message


def test_verify_conservation_message_has_delta_and_stack():
    stack = new_stack()
    stack[cat.BASE] = 7
    verify_conservation(stack, 7)  # exact: no raise
    with pytest.raises(ConservationError) as excinfo:
        verify_conservation(stack, 9, where="unit test")
    message = str(excinfo.value)
    assert "unit test" in message
    assert "-2" in message
    assert "base=7" in message


# ---------------------------------------------------------------------------
# Helper functions.
# ---------------------------------------------------------------------------


def test_stack_helpers_roundtrip():
    stack = new_stack()
    stack[cat.BASE] = 60
    stack[cat.DCACHE_L2] = 30
    stack[cat.ICACHE] = 10
    pruned = prune(stack)
    assert pruned == {cat.BASE: 60, cat.DCACHE_L2: 30, cat.ICACHE: 10}
    assert total(pruned) == 100
    fracs = fractions(pruned)
    assert fracs[cat.BASE] == pytest.approx(0.6)
    assert sum(fracs.values()) == pytest.approx(1.0)
    assert ordered_items(pruned)[0] == (cat.BASE, 60)


def test_collapse_fig7_conserves_cycles():
    stack = {
        cat.BASE: 40,
        cat.EXEC: 10,
        cat.DCACHE_L2: 25,
        cat.DCACHE_MEM: 5,
        cat.BRANCH_MISPREDICT: 12,
        cat.ICACHE: 8,
    }
    collapsed = collapse_fig7(stack)
    assert sum(collapsed.values()) == total(stack)
    assert collapsed["sx"] == 30
    assert collapsed["branch"] == 12
    assert collapsed["ibs/tlb"] == 8
    assert collapsed["core"] == 50
    # Unknown categories fold into core rather than vanishing.
    assert sum(collapse_fig7({"martian": 4}).values()) == 4


def test_merge_sums_elementwise():
    merged = merge([{cat.BASE: 3, cat.EXEC: 1}, {cat.BASE: 2, cat.DRAIN: 4}])
    assert merged == {cat.BASE: 5, cat.EXEC: 1, cat.DRAIN: 4}


def test_renderers_cover_all_categories():
    stack = {c: i + 1 for i, c in enumerate(cat.CPI_CATEGORIES)}
    text = render_stack(stack)
    for label in cat.CATEGORY_LABELS.values():
        assert label in text
    table = render_stack_table({"wl": stack})
    assert "wl" in table
    fig7 = render_stack_table({"wl": stack}, fig7=True)
    for group in cat.FIG7_ORDER:
        assert group in fig7


def test_every_category_mapped():
    """Drift guard: each category has a label and a Figure 7 bucket."""
    assert set(cat.CATEGORY_LABELS) == set(cat.CPI_CATEGORIES)
    assert set(cat.FIG7_GROUPS) == set(cat.CPI_CATEGORIES)
    assert set(cat.FIG7_GROUPS.values()) <= set(cat.FIG7_ORDER)
    assert set(cat.LEVEL_CATEGORY.values()) <= set(cat.CPI_CATEGORIES)
    assert set(cat.FETCH_CATEGORY.values()) <= set(cat.CPI_CATEGORIES)
    assert set(cat.DECODE_STALL_LABELS) == set(cat.DECODE_STALL_KINDS)


def test_runner_metrics_view_matches_registry():
    """ExperimentRunner.metrics() is the registry view of its results."""
    from repro.analysis.workloads import workload_by_name
    from repro.observe.registry import collect

    runner = ExperimentRunner()
    workload = workload_by_name("SPECint95", warm=1_000, timed=500)
    result = runner.run(base_config(), workload)

    metrics = runner.metrics()
    assert len(metrics) == 1
    (key, flat), = metrics.items()
    assert flat == collect(result)
    assert flat[f"cpistack.{cat.BASE}"] == result.core.cpi_stack[cat.BASE]
    assert total(result.core.cpi_stack) == sum(
        value for name, value in flat.items() if name.startswith("cpistack.")
    )
