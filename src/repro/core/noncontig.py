"""Non-contiguous file access (Level 3) for spatial data.

Two cases from §4.1 of the paper:

* **Fixed-length records** (points, line segments, MBRs stored in binary):
  custom file views built with ``MPI_Type_vector`` let each process read every
  N-th block of records in a round-robin fashion (Figure 4), which declusters
  spatially sorted data for load balance (Figure 5b).
* **Variable-length records** (WKT polygons/polylines): a preprocessing pass
  builds vertex-count and displacement arrays, from which an
  ``MPI_Type_indexed`` filetype is created per rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from ..io import File
from ..mpisim import Communicator, Datatype, MPI_BYTE, create_indexed, create_vector
from ..pfs import SimulatedFilesystem
from .parsers import RECORD_DELIMITER

__all__ = [
    "RecordIndex",
    "build_record_index",
    "read_fixed_records_roundrobin",
    "read_variable_records_roundrobin",
    "roundrobin_filetype",
]


# --------------------------------------------------------------------------- #
# fixed-length records
# --------------------------------------------------------------------------- #
def roundrobin_filetype(
    record_type: Datatype,
    records_per_block: int,
    nprocs: int,
    total_blocks: int,
    rank: int,
) -> Tuple[Datatype, int]:
    """Build the vector filetype giving *rank* every ``nprocs``-th block of
    ``records_per_block`` records, and return it with the rank's block count."""
    my_blocks = total_blocks // nprocs + (1 if rank < total_blocks % nprocs else 0)
    if my_blocks == 0:
        return (record_type, 0)
    filetype = create_vector(
        count=my_blocks,
        blocklength=records_per_block,
        stride=records_per_block * nprocs,
        oldtype=record_type,
        name=f"roundrobin[{records_per_block}x{record_type.name}]",
    )
    return (filetype, my_blocks)


def read_fixed_records_roundrobin(
    comm: Communicator,
    fs: SimulatedFilesystem,
    path: str,
    record_type: Datatype,
    records_per_block: int,
) -> bytes:
    """Collective non-contiguous read of a binary file of fixed-size records.

    Block *b* (of ``records_per_block`` records) is assigned to rank
    ``b % nprocs``; each rank's blocks are described by a single vector
    filetype so the MPI-IO layer sees the true non-contiguous request shape.
    Returns the packed record bytes owned by this rank.
    """
    if records_per_block < 1:
        raise ValueError("records_per_block must be >= 1")
    fh = File.Open(comm, fs, path)
    try:
        file_size = fh.Get_size()
        record_size = record_type.size
        if file_size % record_size != 0:
            raise ValueError(
                f"file {path!r} holds {file_size} bytes, which is not a whole "
                f"number of {record_size}-byte {record_type.name} records "
                f"({file_size % record_size} trailing bytes would be silently "
                f"dropped); the file is truncated or uses a different record type"
            )
        total_records = file_size // record_size
        total_blocks = math.ceil(total_records / records_per_block)
        filetype, my_blocks = roundrobin_filetype(
            record_type, records_per_block, comm.size, total_blocks, comm.rank
        )
        if my_blocks == 0:
            # still participate in the collective with an empty request
            fh.Set_view(disp=0, etype=MPI_BYTE, filetype=MPI_BYTE)
            fh.read_all(0)
            return b""
        disp = comm.rank * records_per_block * record_size
        fh.Set_view(disp=disp, etype=MPI_BYTE, filetype=filetype)
        # The final block may be partially filled; clamp to the records that exist.
        my_records = 0
        for b in range(my_blocks):
            block_start = (comm.rank + b * comm.size) * records_per_block
            my_records += max(0, min(records_per_block, total_records - block_start))
        return fh.read_all(my_records * record_size)
    finally:
        fh.Close()


# --------------------------------------------------------------------------- #
# variable-length records
# --------------------------------------------------------------------------- #
@dataclass
class RecordIndex:
    """Offset/length arrays for the variable-length records of a text file.

    This is the "vertex count and displacement arrays … populated as a
    preprocessing step" of §4.1 (expressed in bytes rather than vertices, which
    is what the file view actually needs).
    """

    offsets: List[int]
    lengths: List[int]

    def __post_init__(self) -> None:
        if len(self.offsets) != len(self.lengths):
            raise ValueError("offsets and lengths must have the same length")

    @property
    def num_records(self) -> int:
        return len(self.offsets)


def build_record_index(fs: SimulatedFilesystem, path: str) -> RecordIndex:
    """Sequential preprocessing pass recording every record's offset/length
    (records end at a newline; the file is read 4 MiB at a time)."""
    delimiter, chunk_size = RECORD_DELIMITER, 4 << 20
    offsets: List[int] = []
    lengths: List[int] = []
    with fs.open(path) as fh:
        size = fh.size
        pos = 0
        record_start = 0
        while pos < size:
            chunk = fh.pread(pos, min(chunk_size, size - pos))
            search_from = 0
            while True:
                idx = chunk.find(delimiter, search_from)
                if idx == -1:
                    break
                record_end = pos + idx
                offsets.append(record_start)
                lengths.append(record_end - record_start)
                record_start = record_end + len(delimiter)
                search_from = idx + len(delimiter)
            pos += len(chunk)
        if record_start < size:
            offsets.append(record_start)
            lengths.append(size - record_start)
    # Drop empty records (blank lines).
    keep = [(o, l) for o, l in zip(offsets, lengths) if l > 0]
    return RecordIndex([o for o, _ in keep], [l for _, l in keep])


def read_variable_records_roundrobin(
    comm: Communicator,
    fs: SimulatedFilesystem,
    path: str,
    index: RecordIndex,
    records_per_block: int,
) -> List[bytes]:
    """Collective non-contiguous read of variable-length records.

    Record blocks are assigned round-robin to ranks; each rank builds an
    ``MPI_Type_indexed`` filetype from the preprocessed offset/length arrays
    (Figure 16's experiment).  Returns the records owned by this rank.
    """
    if records_per_block < 1:
        raise ValueError("records_per_block must be >= 1")
    nprocs, rank = comm.size, comm.rank
    total_blocks = math.ceil(index.num_records / records_per_block)

    my_record_ids: List[int] = []
    for b in range(rank, total_blocks, nprocs):
        start = b * records_per_block
        my_record_ids.extend(range(start, min(start + records_per_block, index.num_records)))

    # Records that are consecutive in the file (the common case inside one
    # round-robin block) are merged into a single view block covering the
    # delimiter bytes between them — exactly what ROMIO's data sieving would
    # do — so larger block sizes genuinely produce fewer, larger requests.
    runs: List[Tuple[int, int, List[int]]] = []  # (start, end, record ids)
    for rid in my_record_ids:
        start, length = index.offsets[rid], index.lengths[rid]
        if runs and start <= runs[-1][1] + 2:
            prev_start, _, ids = runs[-1]
            runs[-1] = (prev_start, start + length, ids + [rid])
        else:
            runs.append((start, start + length, [rid]))

    fh = File.Open(comm, fs, path)
    try:
        if not my_record_ids:
            fh.read_all(0)
            return []
        blocklengths = [end - start for start, end, _ in runs]
        displacements = [start for start, _, _ in runs]
        filetype = create_indexed(blocklengths, displacements, MPI_BYTE, name="polygon_view")
        fh.Set_view(disp=0, etype=MPI_BYTE, filetype=filetype)
        data = fh.read_all(sum(blocklengths))
    finally:
        fh.Close()

    records: List[bytes] = []
    cursor = 0
    for (run_start, run_end, ids), run_len in zip(runs, blocklengths):
        for rid in ids:
            rel = index.offsets[rid] - run_start
            records.append(data[cursor + rel : cursor + rel + index.lengths[rid]])
        cursor += run_len
    return records
