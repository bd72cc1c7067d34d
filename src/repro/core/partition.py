"""Contiguous file partitioning for variable-length geometry records.

This module implements the paper's two answers to the "a polygon vertex list
can potentially get split across file partitions" problem (§4.1):

* :class:`OverlapPartitioner` — each process reads its block plus a *halo*
  region of ``max_geometry_size`` bytes past the block end and takes ownership
  of every record that starts inside its block.  Costs O(N · halo) redundant
  bytes per iteration.
* :class:`MessagePartitioner` — the paper's **Algorithm 1**: each process
  reads fixed-size, non-overlapping, stripe-aligned blocks; the incomplete
  trailing fragment after the last delimiter is passed to the next rank with
  a ring of send/recv calls (even ranks send-then-receive, odd ranks
  receive-then-send, exactly as the pseudo-code does to avoid deadlock).

Both support MPI-IO access Level 0 (independent ``read_at``) and Level 1
(collective ``read_at_all``), and both iterate when a per-process block size
is given ("multiple iterations of file access required to read the complete
file").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..io import File, Info
from ..mpisim import Communicator
from ..mpisim.errors import MPIError
from ..pfs import SimulatedFilesystem
from .parsers import split_records

__all__ = [
    "PartitionConfig",
    "PartitionResult",
    "MessagePartitioner",
    "OverlapPartitioner",
    "read_records",
]

#: default upper bound on a single geometry's size — "the maximum size of a
#: shape in our current data sets which is 11 MB" (§4.1)
DEFAULT_MAX_GEOMETRY_SIZE = 11 * 1024 * 1024

#: tag used by the ring exchange of Algorithm 1
_RING_TAG = 7001


@dataclass
class PartitionConfig:
    """User-facing knobs of the file-partitioning layer."""

    #: per-process block size in bytes; ``None`` divides the file equally
    block_size: Optional[int] = None
    #: MPI-IO access level for the block reads: 0 (independent) or 1 (collective)
    level: int = 0
    #: record delimiter (WKT datasets are newline-delimited)
    delimiter: bytes = b"\n"
    #: halo length for the overlap strategy / receive-buffer bound for the
    #: message strategy
    max_geometry_size: int = DEFAULT_MAX_GEOMETRY_SIZE
    #: MPI-IO hints forwarded to :class:`repro.io.File`
    info: Optional[Info] = None

    def resolve_block_size(self, file_size: int, nprocs: int) -> int:
        if self.block_size is not None:
            if self.block_size <= 0:
                raise ValueError("block_size must be positive")
            return self.block_size
        return max(1, math.ceil(file_size / nprocs))


@dataclass
class PartitionResult:
    """Per-rank outcome of a partitioned read."""

    #: complete records owned by this rank (delimiter stripped)
    records: List[bytes]
    #: bytes read from the filesystem by this rank (including redundant halo bytes)
    bytes_read: int
    #: number of block-read iterations performed
    iterations: int
    #: bytes exchanged through the ring (message strategy only)
    ring_bytes: int = 0

    @property
    def num_records(self) -> int:
        return len(self.records)


class _BasePartitioner:
    """Shared block-iteration logic."""

    def __init__(self, config: Optional[PartitionConfig] = None) -> None:
        self.config = config or PartitionConfig()
        if self.config.level not in (0, 1):
            raise ValueError("level must be 0 (independent) or 1 (collective)")

    # ------------------------------------------------------------------ #
    def _read_block(self, fh: File, offset: int, nbytes: int) -> bytes:
        if self.config.level == 0:
            return fh.read_at(offset, nbytes)
        return fh.read_at_all(offset, nbytes)

    def _iteration_plan(self, file_size: int, nprocs: int) -> Tuple[int, int]:
        block = self.config.resolve_block_size(file_size, nprocs)
        chunk = block * nprocs
        iterations = max(1, math.ceil(file_size / chunk)) if file_size else 1
        return block, iterations


class MessagePartitioner(_BasePartitioner):
    """Algorithm 1: iterative block reads + ring exchange of fragments."""

    def read(self, comm: Communicator, fs: SimulatedFilesystem, path: str) -> PartitionResult:
        cfg = self.config
        fh = File.Open(comm, fs, path, info=cfg.info)
        try:
            return self._read_open(comm, fh)
        finally:
            fh.Close()

    def _read_open(self, comm: Communicator, fh: File) -> PartitionResult:
        cfg = self.config
        rank, nprocs = comm.rank, comm.size
        file_size = fh.Get_size()
        block, iterations = self._iteration_plan(file_size, nprocs)
        chunk = block * nprocs
        delim = cfg.delimiter

        records: List[bytes] = []
        bytes_read = 0
        ring_bytes = 0
        carry = b""  # rank 0 only: fragment belonging to the start of its next block

        next_rank = (rank + 1) % nprocs
        prev_rank = (rank - 1 + nprocs) % nprocs

        for it in range(iterations):
            global_offset = it * chunk
            start = global_offset + rank * block
            nbytes = max(0, min(block, file_size - start)) if start < file_size else 0

            # Level-1 reads are collective, so every rank calls the read even
            # when its share of the final iteration is empty.
            buffer = self._read_block(fh, start, nbytes)
            bytes_read += len(buffer)

            if buffer:
                last = buffer.rfind(delim)
                if last == -1:
                    body, tail = b"", buffer
                else:
                    body, tail = buffer[: last + 1], buffer[last + 1 :]
            else:
                body, tail = b"", b""

            if buffer and not body and nprocs > 1:
                # Algorithm 1 moves exactly one fragment one rank forward per
                # iteration, so it requires every non-empty block to contain at
                # least one delimiter (the paper sizes blocks well above the
                # 11 MB maximum geometry for this reason).
                raise MPIError(
                    f"block of {len(buffer)} bytes contains no record delimiter; "
                    "Algorithm 1 requires block_size to exceed the largest record "
                    "(use a larger block_size or the 'overlap' strategy)"
                )

            if len(tail) > cfg.max_geometry_size:
                raise MPIError(
                    f"trailing fragment of {len(tail)} bytes exceeds max_geometry_size="
                    f"{cfg.max_geometry_size}; increase the bound or the block size"
                )

            # Ring exchange (even ranks send first, odd ranks receive first).
            if nprocs == 1:
                prev_tail = tail
            elif rank % 2 == 0:
                comm.send(tail, next_rank, tag=_RING_TAG)
                prev_tail = comm.recv(source=prev_rank, tag=_RING_TAG)
            else:
                prev_tail = comm.recv(source=prev_rank, tag=_RING_TAG)
                comm.send(tail, next_rank, tag=_RING_TAG)
            ring_bytes += len(tail)

            if rank == 0:
                # The fragment from the last rank belongs to the beginning of
                # rank 0's block in the *next* iteration.
                if nprocs == 1 and buffer and not body:
                    # single-rank special case: the whole block is one fragment,
                    # keep accumulating it until a delimiter shows up
                    carry = carry + buffer
                    continue
                prefix, carry = carry, prev_tail
            else:
                prefix = prev_tail

            records.extend(split_records(prefix + body, delim))

        # A non-empty carry after the final iteration is the file's trailing
        # record (a file that does not end with the delimiter).
        if rank == 0 and carry:
            records.extend(split_records(carry, delim))

        return PartitionResult(
            records=records,
            bytes_read=bytes_read,
            iterations=iterations,
            ring_bytes=ring_bytes,
        )


class OverlapPartitioner(_BasePartitioner):
    """Halo-region strategy: overlapping reads, ownership by record start."""

    def read(self, comm: Communicator, fs: SimulatedFilesystem, path: str) -> PartitionResult:
        cfg = self.config
        fh = File.Open(comm, fs, path, info=cfg.info)
        try:
            return self._read_open(comm, fh)
        finally:
            fh.Close()

    def _read_open(self, comm: Communicator, fh: File) -> PartitionResult:
        cfg = self.config
        rank, nprocs = comm.rank, comm.size
        file_size = fh.Get_size()
        block, iterations = self._iteration_plan(file_size, nprocs)
        chunk = block * nprocs
        delim = cfg.delimiter
        halo = cfg.max_geometry_size

        records: List[bytes] = []
        bytes_read = 0

        for it in range(iterations):
            global_offset = it * chunk
            start = global_offset + rank * block
            own_bytes = max(0, min(block, file_size - start)) if start < file_size else 0

            # Read one byte before the block (to detect whether the block
            # starts exactly on a record boundary) plus the halo after it.
            pre = 1 if start > 0 and own_bytes > 0 else 0
            read_len = own_bytes + halo + pre if own_bytes > 0 else 0
            buffer = self._read_block(fh, start - pre, read_len)
            bytes_read += len(buffer)
            if own_bytes == 0:
                continue

            if pre:
                boundary_is_start = buffer[:1] == delim
                buffer = buffer[1:]
            else:
                boundary_is_start = True  # beginning of file

            # Position of the first record start within the block.
            if boundary_is_start:
                first_start = 0
            else:
                first_delim = buffer.find(delim)
                if first_delim == -1 or first_delim >= own_bytes + halo:
                    # The record spanning the block start is longer than the
                    # halo; it belongs to an earlier rank anyway.
                    continue
                first_start = first_delim + 1

            pos = first_start
            while pos < own_bytes:
                end = buffer.find(delim, pos)
                if end == -1:
                    remaining = buffer[pos:]
                    if start + own_bytes >= file_size:
                        # trailing record without a final delimiter
                        if remaining:
                            records.append(remaining)
                        break
                    raise MPIError(
                        f"record starting at block offset {pos} exceeds the halo of "
                        f"{halo} bytes; increase max_geometry_size"
                    )
                records.append(buffer[pos:end])
                pos = end + 1

        return PartitionResult(records=records, bytes_read=bytes_read, iterations=iterations)


def read_records(
    comm: Communicator,
    fs: SimulatedFilesystem,
    path: str,
    config: Optional[PartitionConfig] = None,
    strategy: str = "message",
) -> PartitionResult:
    """Convenience front end: partition *path* among the ranks of *comm* and
    return this rank's complete records."""
    if strategy == "message":
        return MessagePartitioner(config).read(comm, fs, path)
    if strategy == "overlap":
        return OverlapPartitioner(config).read(comm, fs, path)
    raise ValueError(f"unknown partitioning strategy {strategy!r} (use 'message' or 'overlap')")
