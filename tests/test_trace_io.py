"""Unit tests for the ``.trc`` trace file format."""

import struct
import time

import pytest

from repro.common.errors import TraceError
from repro.trace.io import read_trace, write_trace
from repro.trace.record import TraceRecord, make_branch, make_load, make_store
from repro.trace.stream import Trace
from repro.isa.opcodes import OpClass


@pytest.fixture
def sample_trace():
    records = [
        make_load(0x1000, dest=8, addr_srcs=(1,), ea=0x9000),
        TraceRecord(0x1004, OpClass.INT_ALU, dest=9, srcs=(8,)),
        make_store(0x1008, srcs=(1, 9), ea=0x9008),
        make_branch(0x100C, taken=True, target=0x1000),
        TraceRecord(0x1000, OpClass.SPECIAL, privileged=True),
    ]
    return Trace(records, name="sample", cpu=3)


@pytest.mark.parametrize("suffix", [".trc"])
class TestRoundTrip:
    def test_records_identical(self, tmp_path, sample_trace, suffix):
        path = tmp_path / f"trace{suffix}"
        write_trace(sample_trace, path)
        loaded = read_trace(path)
        assert loaded.records == sample_trace.records

    def test_metadata_preserved(self, tmp_path, sample_trace, suffix):
        path = tmp_path / f"trace{suffix}"
        write_trace(sample_trace, path)
        loaded = read_trace(path)
        assert loaded.name == "sample"
        assert loaded.cpu == 3

    def test_empty_trace(self, tmp_path, sample_trace, suffix):
        path = tmp_path / f"empty{suffix}"
        write_trace(Trace([], name="empty"), path)
        assert len(read_trace(path)) == 0


class TestErrors:
    def test_unknown_suffix(self, tmp_path, sample_trace):
        for name in ("trace.bin", "trace.jsonl"):
            with pytest.raises(TraceError, match=name):
                write_trace(sample_trace, tmp_path / name)
        for name in ("trace.xyz", "trace.jsonl"):
            (tmp_path / name).write_text("{}\n")
            with pytest.raises(TraceError, match=name):
                read_trace(tmp_path / name)

    def test_bad_binary_magic(self, tmp_path):
        path = tmp_path / "x.trc"
        path.write_bytes(b"NOPE1234")
        with pytest.raises(TraceError, match=rf"{path.name}.*not an SPT2"):
            read_trace(path)


def _big_trace(count=300):
    records = [
        make_load(0x1000 + 4 * i, dest=8, addr_srcs=(1,), ea=0x9000 + 8 * i)
        for i in range(count)
    ]
    return Trace(records, name="framed", cpu=1)


class TestBinaryFraming:
    """SPT2 integrity framing: truncation and corruption must not pass."""

    def test_truncation_names_file_and_offset(self, tmp_path):
        path = tmp_path / "t.trc"
        write_trace(_big_trace(), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceError, match=rf"{path.name}.*byte \d+"):
            read_trace(path)

    def test_single_bitflip_is_caught_by_crc(self, tmp_path):
        path = tmp_path / "t.trc"
        write_trace(_big_trace(), path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError, match=rf"{path.name}.*checksum mismatch"):
            read_trace(path)

    def test_footer_count_flip_is_caught(self, tmp_path):
        # The CRC covers the body, not the footer, so the count field
        # needs its own header/footer cross-check.
        path = tmp_path / "t.trc"
        write_trace(_big_trace(), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, len(data) - 8, 7)  # footer count := 7
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError, match=rf"{path.name}.*count mismatch"):
            read_trace(path)


class TestLegacyBinary:
    def test_spt1_file_is_rejected(self, tmp_path, sample_trace):
        """The unframed SPT1 layout carries no checksum, so it is not read."""
        path = tmp_path / "t.trc"
        write_trace(sample_trace, path)
        data = path.read_bytes()
        path.write_bytes(b"SPT1" + data[4:-12])  # footer is magic + <II
        with pytest.raises(TraceError, match=rf"{path.name}.*SPT1"):
            read_trace(path)


class TestReadSpeed:
    def test_read_is_linear(self, tmp_path):
        """A read slices the file once; re-slicing per record made a
        50,000-record read take tens of seconds."""
        from repro.trace.synth import generate_trace, standard_profiles

        trace = generate_trace(standard_profiles()["TPC-C"], 50_000, seed=2003)
        path = tmp_path / "t.trc"
        write_trace(trace, path)
        start = time.perf_counter()
        loaded = read_trace(path)
        elapsed = time.perf_counter() - start
        assert loaded.records == trace.records
        assert elapsed < 5.0, f"reading 50,000 records took {elapsed:.1f} s"
