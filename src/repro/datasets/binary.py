"""Binary fixed-record datasets (MBRs).

§4.1: "Unlike polygons that vary in length, spatial types like points, lines,
and MBRs have fixed length.  Files containing these special types are
preprocessed and stored in binary as basic or struct type."  These are the
files used by the MPI-derived-datatype experiments (Figures 12 and 15) and by
spatial index files that need frequent, regular access.
"""

from __future__ import annotations

import random
import struct
from typing import Iterable, List

from ..geometry import Envelope
from ..pfs import SimulatedFilesystem

__all__ = [
    "MBR_RECORD_FLOAT32",
    "MBR_RECORD_FLOAT64",
    "write_mbr_file",
    "read_mbr_records",
    "read_mbr_file",
    "validate_record_file",
    "random_envelopes",
]

#: an MBR record of 4 single-precision floats (Figure 12 / 15's record)
MBR_RECORD_FLOAT32 = struct.Struct("<4f")
#: an MBR record of 4 doubles (matches the MPI_RECT spatial datatype)
MBR_RECORD_FLOAT64 = struct.Struct("<4d")

_MBR_RECORDS = {"float32": MBR_RECORD_FLOAT32, "float64": MBR_RECORD_FLOAT64}


def _mbr_record(precision: str) -> struct.Struct:
    """The MBR record layout of *precision*; anything else is refused."""
    try:
        return _MBR_RECORDS[precision]
    except KeyError:
        raise ValueError(
            f"MBR precision must be 'float32' or 'float64', not {precision!r}"
        ) from None


def random_envelopes(
    count: int,
    extent: Envelope = Envelope(-180.0, -90.0, 180.0, 90.0),
    max_size_fraction: float = 0.01,
    seed: int = 7,
) -> List[Envelope]:
    """Uniformly placed random rectangles (the Reduce/Scan benchmark input)."""
    rng = random.Random(seed)
    out: List[Envelope] = []
    wx = extent.width * max_size_fraction
    wy = extent.height * max_size_fraction
    for _ in range(count):
        x = rng.uniform(extent.minx, extent.maxx - wx)
        y = rng.uniform(extent.miny, extent.maxy - wy)
        w = rng.uniform(0.0, wx)
        h = rng.uniform(0.0, wy)
        out.append(Envelope(x, y, x + w, y + h))
    return out


def write_mbr_file(
    fs: SimulatedFilesystem,
    path: str,
    envelopes: Iterable[Envelope],
    precision: str = "float32",
) -> int:
    """Write envelopes as fixed binary records; returns the record count."""
    record = _mbr_record(precision)
    out = bytearray()
    count = 0
    for env in envelopes:
        out += record.pack(*env.as_tuple())
        count += 1
    fs.create_file(path, bytes(out))
    return count


def _check_whole_records(nbytes: int, record_size: int, what: str, source: str) -> None:
    if nbytes % record_size != 0:
        raise ValueError(
            f"{source} holds {nbytes} bytes, which is not a whole number of "
            f"{record_size}-byte {what} records ({nbytes % record_size} trailing "
            f"bytes); the file is truncated, padded or uses a different record type"
        )


def validate_record_file(fs: SimulatedFilesystem, path: str, record_size: int) -> int:
    """Check that *path*'s size is a whole multiple of *record_size*.

    Returns the record count; raises :class:`ValueError` with the offending
    sizes spelled out otherwise (never silently drops a partial record).
    """
    if record_size <= 0:
        raise ValueError("record_size must be positive")
    nbytes = fs.file_size(path)
    _check_whole_records(nbytes, record_size, "fixed-size", f"file {path!r}")
    return nbytes // record_size


def read_mbr_records(data: bytes, precision: str = "float32") -> List[Envelope]:
    """Decode packed MBR records back into envelopes."""
    record = _mbr_record(precision)
    _check_whole_records(len(data), record.size, f"MBR ({precision})", "byte string")
    return [Envelope(*record.unpack_from(data, i)) for i in range(0, len(data), record.size)]


def read_mbr_file(
    fs: SimulatedFilesystem, path: str, precision: str = "float32"
) -> List[Envelope]:
    """Read a whole MBR file, validating its size against the record size."""
    record = _mbr_record(precision)
    count = validate_record_file(fs, path, record.size)
    with fs.open(path) as fh:
        return read_mbr_records(fh.pread(0, count * record.size), precision)

