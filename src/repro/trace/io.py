"""Trace file format: framed binary ``.trc``.

A trace file holds, in order:

- the magic ``SPT2``;
- a header: record count, name length and CPU id, then the name;
- the packed records (a fixed-width head, then one signed byte per
  source register);
- a footer: the magic ``SPTE``, the record count again and a CRC-32 of
  everything between the two magics.

**Integrity.**  Archived traces feed thousands of simulations, so a
truncated or bit-flipped file must never be silently consumed as a
shorter or different workload.  :func:`read_trace` raises
:class:`~repro.common.errors.TraceError` on every defect it finds: a
wrong magic (including the unframed ``SPT1`` layout of earlier
releases), a missing footer, a CRC or header/footer count mismatch, or
a record that does not parse.  The error names the file and the byte
offset where parsing stopped; raw ``struct.error`` never escapes.
Writes go to a temporary file renamed into place, so an interrupted
write leaves no torn trace behind.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Union

from repro.common import faults
from repro.common.errors import TraceError
from repro.isa.opcodes import OpClass
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace

_MAGIC = b"SPT2"
#: Footer magic: count + CRC-32 trailer.
_FOOTER_MAGIC = b"SPTE"

# pc, op, dest, ea, size, flags(taken|priv), target, nsrcs  -> then srcs
_RECORD_HEAD = struct.Struct("<qBbqBBqB")
_HEADER_FMT = struct.Struct("<IHB")
_FOOTER_FMT = struct.Struct("<II")
_FOOTER_SIZE = len(_FOOTER_MAGIC) + _FOOTER_FMT.size


def _check_suffix(path: Path) -> None:
    if path.suffix != ".trc":
        raise TraceError(f"{path}: unknown trace format (trace files end in .trc)")


def write_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace to the ``.trc`` file ``path``.

    The bytes go to a temporary file in the same directory which is
    atomically renamed into place, so a crash mid-write can never leave
    a half-written trace under the final name.
    """
    path = Path(path)
    _check_suffix(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_encode(trace))
        os.replace(tmp_name, path)
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    # Testing hook: deliberately truncate/bit-flip the finished file to
    # model damage in transit or at rest (no-op unless faults installed).
    faults.corrupt_trace_file(path)


def _encode(trace: Trace) -> bytes:
    name_bytes = trace.name.encode("utf-8")
    body = bytearray()
    body += _HEADER_FMT.pack(len(trace), len(name_bytes), trace.cpu)
    body += name_bytes
    for record in trace.records:
        flags = (1 if record.taken else 0) | (2 if record.privileged else 0)
        body += _RECORD_HEAD.pack(
            record.pc,
            int(record.op),
            record.dest,
            record.ea,
            record.size,
            flags,
            record.target,
            len(record.srcs),
        )
        body += struct.pack(f"<{len(record.srcs)}b", *record.srcs)
    footer = _FOOTER_MAGIC + _FOOTER_FMT.pack(len(trace), zlib.crc32(body))
    return _MAGIC + body + footer


def read_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`write_trace`.

    Raises :class:`TraceError`, naming the file and the byte offset,
    on any damage.
    """
    path = Path(path)
    _check_suffix(path)
    data = path.read_bytes()
    if data[:4] != _MAGIC:
        raise TraceError(f"{path}: not an SPT2 trace file (magic {data[:4]!r})")
    body_end = len(data) - _FOOTER_SIZE
    if (
        body_end < len(_MAGIC) + _HEADER_FMT.size
        or data[body_end : body_end + len(_FOOTER_MAGIC)] != _FOOTER_MAGIC
    ):
        raise TraceError(
            f"{path}: truncated: footer missing (file ends at byte {len(data)})"
        )
    footer_count, footer_crc = _FOOTER_FMT.unpack_from(data, len(data) - _FOOTER_FMT.size)
    # One slice of the record region, taken once: every unpack below
    # reads it in place, so a read is linear in the file size.
    body = memoryview(data)[:body_end]
    actual_crc = zlib.crc32(body[len(_MAGIC) :])
    if actual_crc != footer_crc:
        raise TraceError(
            f"{path}: checksum mismatch (expected {footer_crc:#010x}, "
            f"got {actual_crc:#010x}): file corrupted"
        )

    offset = len(_MAGIC)
    count, name_len, cpu = _HEADER_FMT.unpack_from(body, offset)
    offset += _HEADER_FMT.size
    if footer_count != count:
        # The CRC does not cover the footer itself, so a flip inside the
        # footer's count field is only caught by this cross-check.
        raise TraceError(
            f"{path}: header/footer record count mismatch ({count} vs "
            f"{footer_count}): file corrupted"
        )
    if offset + name_len > body_end:
        raise TraceError(f"{path}: truncated: name field runs past byte {body_end}")
    name = bytes(body[offset : offset + name_len]).decode("utf-8", errors="replace")
    offset += name_len

    records = []
    for index in range(count):
        record_start = offset
        try:
            pc, op, dest, ea, size, flags, target, nsrcs = _RECORD_HEAD.unpack_from(
                body, offset
            )
            offset += _RECORD_HEAD.size
            srcs = struct.unpack_from(f"<{nsrcs}b", body, offset)
            offset += nsrcs
            op_class = OpClass(op)
        except struct.error as exc:
            raise TraceError(
                f"{path}: truncated: record {index}/{count} cut off at byte "
                f"{record_start}"
            ) from exc
        except ValueError as exc:
            raise TraceError(
                f"{path}: corrupt record {index}/{count} at byte "
                f"{record_start}: invalid op class {op}"
            ) from exc
        records.append(
            TraceRecord(
                pc=pc,
                op=op_class,
                dest=dest,
                srcs=srcs,
                ea=ea,
                size=size,
                taken=bool(flags & 1),
                target=target,
                privileged=bool(flags & 2),
            )
        )
    return Trace(records, name=name, cpu=cpu)
