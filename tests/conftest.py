"""Shared fixtures: small fast machines and traces for unit testing."""

import pytest

from repro.core.pipeline import ProcessorCore
from repro.frontend.bht import BhtParams, BranchHistoryTable
from repro.frontend.fetch import FrontEndParams
from repro.memory.params import (
    BusParams,
    CacheGeometry,
    MemoryParams,
    PrefetchParams,
    TlbGeometry,
)
from repro.model.config import MachineConfig, base_config
from repro.model.simulator import build_hierarchy
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace
from repro.isa.opcodes import OpClass


@pytest.fixture
def table1_config() -> MachineConfig:
    """The production Table 1 configuration."""
    return base_config()


@pytest.fixture
def zero_snapshot(table1_config) -> dict:
    """A fresh core's :meth:`ProcessorCore.snapshot`: every counter zero."""
    core = ProcessorCore(
        Trace([TraceRecord(0x1000, OpClass.INT_ALU, dest=8)]),
        build_hierarchy(table1_config),
        table1_config.core,
        table1_config.frontend,
        BranchHistoryTable(table1_config.bht),
    )
    return core.snapshot()


@pytest.fixture
def small_config() -> MachineConfig:
    """A scaled-down machine for fast unit tests (same structure)."""
    return MachineConfig(
        name="small",
        l1i=CacheGeometry("L1I", 8 * 1024, 2, hit_latency=3, mshr_count=4),
        l1d=CacheGeometry(
            "L1D", 8 * 1024, 2, hit_latency=4, mshr_count=4, banks=8, bank_bytes=4
        ),
        l2=CacheGeometry("L2", 64 * 1024, 4, hit_latency=12, mshr_count=8),
        itlb=TlbGeometry("ITLB", entries=16, ways=4, miss_penalty=20),
        dtlb=TlbGeometry("DTLB", entries=16, ways=4, miss_penalty=20),
        l1_l2_bus=BusParams("l1l2", latency=2, bytes_per_cycle=32),
        system_bus=BusParams("sys", latency=10, bytes_per_cycle=8),
        memory=MemoryParams(latency=60, channels=2, channel_occupancy=8),
        prefetch=PrefetchParams(streams=8),
        bht=BhtParams("small-bht", entries=256, ways=4, access_latency=2),
        frontend=FrontEndParams(),
    )


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


@pytest.fixture
def alu_loop_trace() -> Trace:
    return make_alu_loop()
