"""Unit tests for the synthetic trace generators."""

import pytest

from repro.common.errors import ConfigError
from repro.isa.opcodes import OpClass
from repro.trace.synth import (
    TraceGenerator,
    build_smp_generators,
    generate_trace,
    standard_profiles,
)
from repro.trace.synth.data import SHARED_DATA_BASE


@pytest.fixture(scope="module")
def int95_trace():
    return generate_trace(standard_profiles()["SPECint95"], 20_000, seed=42)


@pytest.fixture(scope="module")
def tpcc_trace():
    return generate_trace(standard_profiles()["TPC-C"], 30_000, seed=42)


class TestControlFlowConsistency:
    def test_int95_validates(self, int95_trace):
        int95_trace.validate()

    def test_tpcc_validates(self, tpcc_trace):
        tpcc_trace.validate()

    @pytest.mark.parametrize("name", ["SPECfp95", "SPECint2000", "SPECfp2000"])
    def test_other_profiles_validate(self, name):
        generate_trace(standard_profiles()[name], 5_000, seed=9).validate()

    def test_exact_length(self):
        trace = generate_trace(standard_profiles()["SPECint95"], 1234, seed=1)
        assert len(trace) == 1234

    def test_zero_length_rejected(self):
        generator = TraceGenerator(standard_profiles()["SPECint95"], seed=1)
        with pytest.raises(ConfigError):
            generator.generate(0)


class TestDeterminism:
    def test_same_seed_identical(self):
        profile = standard_profiles()["SPECint95"]
        a = generate_trace(profile, 3000, seed=5)
        b = generate_trace(profile, 3000, seed=5)
        assert a.records == b.records

    def test_different_seed_differs(self):
        profile = standard_profiles()["SPECint95"]
        a = generate_trace(profile, 3000, seed=5)
        b = generate_trace(profile, 3000, seed=6)
        assert a.records != b.records

    def test_static_instruction_classes(self, int95_trace):
        """A given pc must always carry the same opcode class.

        Control-transfer pcs may alternate among CALL/RETURN/UNCOND (the
        call-depth cap demotes deep calls to plain jumps, and kernel
        transitions reuse fall-through slots); body pcs must be stable.
        """
        transfer = {OpClass.CALL, OpClass.RETURN, OpClass.BRANCH_UNCOND}
        seen = {}
        for record in int95_trace.records:
            if record.pc in seen:
                previous = seen[record.pc]
                if previous == record.op:
                    continue
                assert previous in transfer and record.op in transfer, (
                    f"pc {record.pc:#x} polymorphic: {previous} vs {record.op}"
                )
            else:
                seen[record.pc] = record.op


class TestMixCalibration:
    def test_int95_mix(self, int95_trace):
        stats = int95_trace.stats()
        assert 0.12 < stats.load_fraction < 0.30
        assert 0.04 < stats.store_fraction < 0.18
        assert 0.04 < stats.branch_fraction < 0.20
        assert stats.fp_fraction == 0.0

    def test_fp_workload_has_fp(self):
        trace = generate_trace(standard_profiles()["SPECfp95"], 10_000, seed=42)
        assert trace.stats().fp_fraction > 0.15

    def test_tpcc_kernel_fraction(self, tpcc_trace):
        priv = tpcc_trace.stats().privileged_fraction
        assert 0.25 < priv < 0.45  # target 0.34

    def test_spec_has_no_kernel(self, int95_trace):
        assert int95_trace.stats().privileged_fraction == 0.0

    def test_tpcc_code_footprint_large(self, tpcc_trace):
        stats = tpcc_trace.stats()
        assert stats.code_footprint_bytes > 64 * 1024

    def test_int95_code_footprint_moderate(self, int95_trace):
        assert int95_trace.stats().code_footprint_bytes < 128 * 1024


class TestDependences:
    def test_branch_reads_condition_codes(self, int95_trace):
        from repro.isa.registers import ICC

        for record in int95_trace.records:
            if record.op == OpClass.BRANCH_COND:
                assert ICC in record.srcs
                break
        else:
            pytest.fail("no conditional branch found")

    def test_compare_precedes_conditional(self, int95_trace):
        from repro.isa.registers import ICC

        records = int95_trace.records
        checked = 0
        for i, record in enumerate(records):
            if record.op == OpClass.BRANCH_COND and i > 0:
                # Some older instruction in the same block wrote ICC.
                producers = [
                    r for r in records[max(0, i - 30) : i] if r.dest == ICC
                ]
                assert producers, f"branch at {record.pc:#x} without compare"
                checked += 1
                if checked > 20:
                    break

    def test_memory_addresses_aligned(self, tpcc_trace):
        for record in tpcc_trace.records:
            if record.is_memory:
                assert record.ea % 8 == 0


class TestRegions:
    def test_memory_regions_exposed(self):
        generator = TraceGenerator(standard_profiles()["TPC-C"], seed=1)
        regions = generator.memory_regions()
        assert "user_code" in regions
        assert "user_data" in regions
        assert "kernel_code" in regions
        assert "user_data_hot" in regions
        base, size = regions["user_data"]
        hot_base, hot_size = regions["user_data_hot"]
        assert hot_base == base and hot_size <= size

    def test_spec_has_no_kernel_region(self):
        generator = TraceGenerator(standard_profiles()["SPECint95"], seed=1)
        assert "kernel_code" not in generator.memory_regions()


def smp_traces(profile_name, cpu_count, instructions, seed):
    generators = build_smp_generators(standard_profiles()[profile_name], cpu_count, seed)
    return [generator.generate(instructions) for generator in generators]


class TestSmp:
    def test_per_cpu_traces(self):
        traces = smp_traces("TPC-C", 4, 3000, seed=3)
        assert len(traces) == 4
        for trace in traces:
            trace.validate()
            assert len(trace) == 3000

    def test_cpu_streams_differ(self):
        traces = smp_traces("TPC-C", 2, 3000, seed=3)
        assert traces[0].records != traces[1].records

    def test_shared_region_accessed(self):
        traces = smp_traces("TPC-C", 2, 20_000, seed=3)
        shared = [
            r
            for trace in traces
            for r in trace.records
            if r.is_memory and r.ea >= SHARED_DATA_BASE
        ]
        assert shared, "no shared-region accesses generated"

    def test_smp_requires_sharing_profile(self):
        with pytest.raises(ConfigError):
            build_smp_generators(standard_profiles()["SPECint95"], 2, seed=1)

    def test_cpu_count_positive(self):
        with pytest.raises(ConfigError):
            build_smp_generators(standard_profiles()["TPC-C"], 0, seed=1)
