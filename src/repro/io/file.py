"""MPI-IO ``File`` object for the simulated runtime.

Supports the three access levels of Table 1 of the paper:

* **Level 0** — contiguous + independent: :meth:`File.read_at`
* **Level 1** — contiguous + collective: :meth:`File.read_at_all`
* **Level 3** — non-contiguous + collective: :meth:`File.Set_view` with a
  derived filetype followed by :meth:`File.read_all`

Data always comes from the backing local file (so parsers see real bytes);
virtual time is charged through the filesystem's cost model, independently for
Level 0 and through the two-phase model for the collective levels.

Cost contract: expanding a view into absolute file blocks
(:meth:`File._view_blocks`, the one routine every read and write goes through)
costs O(returned blocks) — never O(bytes); the default byte view resolves any
read to one block in constant time.  The block lists are handed to the cost
models as ``ReadRequest.ranges``, so they are part of the exact-metric surface:
a change that splits or merges blocks differently changes ``sim_io_s``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from ..mpisim import MPI_BYTE, Communicator, CountLimitError, Datatype
from ..mpisim.errors import MPIError
from ..pfs import ReadRequest, SimulatedFilesystem
from .hints import Info
from .twophase import CollectivePlan, collective_read_time

__all__ = ["File", "MAX_IO_BYTES"]

#: ROMIO's 2 GB single-operation limit (signed 32-bit element count, §3)
MAX_IO_BYTES = 2**31 - 1

Block = Tuple[int, int]


class File:
    """A parallel file opened by all ranks of a communicator."""

    def __init__(
        self,
        comm: Communicator,
        fs: SimulatedFilesystem,
        path: str,
        mode: str = "r",
        info: Optional[Info] = None,
    ) -> None:
        self.comm = comm
        self.fs = fs
        self.path = path
        self.mode = mode
        self.info = info or Info()
        self._handle = fs.open(path, mode)
        # default view: displacement 0, etype = filetype = MPI_BYTE
        self._disp = 0
        self._etype: Datatype = MPI_BYTE
        self._filetype: Datatype = MPI_BYTE
        self._pointer = 0  # individual file pointer, in etype units
        self._closed = False
        #: plan of the most recent collective operation (benchmark introspection)
        self.last_plan: Optional[CollectivePlan] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @classmethod
    def Open(
        cls,
        comm: Communicator,
        fs: SimulatedFilesystem,
        path: str,
        mode: str = "r",
        info: Optional[Info] = None,
    ) -> "File":
        """Collective open (every rank of *comm* must call it)."""
        f = cls(comm, fs, path, mode, info)
        comm.clock.advance(fs.open_time(), category="io")
        comm.barrier()
        return f

    def Close(self) -> None:
        if not self._closed:
            self._handle.close()
            self._closed = True

    close = Close

    def __enter__(self) -> "File":
        return self

    def __exit__(self, *exc) -> None:
        self.Close()

    # ------------------------------------------------------------------ #
    # metadata and views
    # ------------------------------------------------------------------ #
    def Get_size(self) -> int:
        """File size in bytes."""
        return self._handle.size

    def Set_view(
        self,
        disp: int = 0,
        etype: Optional[Datatype] = None,
        filetype: Optional[Datatype] = None,
    ) -> None:
        """Define this rank's file view (displacement + elementary type +
        filetype).  The default view is a byte stream starting at 0."""
        self._disp = int(disp)
        self._etype = etype or MPI_BYTE
        self._filetype = filetype or self._etype
        if self._filetype.size % self._etype.size != 0:
            raise MPIError("filetype size must be a multiple of the etype size")
        self._pointer = 0

    def Seek(self, offset_etypes: int) -> None:
        """Move the individual file pointer (in etype units within the view)."""
        if offset_etypes < 0:
            raise MPIError("file pointer cannot be negative")
        self._pointer = offset_etypes

    def Get_position(self) -> int:
        return self._pointer

    # ------------------------------------------------------------------ #
    # view expansion
    # ------------------------------------------------------------------ #
    def _view_blocks(self, start_etypes: int, nbytes: int) -> List[Block]:
        """Absolute file blocks for *nbytes* of view data starting at the
        view data position ``start_etypes`` (measured in etype units)."""
        if nbytes <= 0:
            return []
        ft = self._filetype
        pos = start_etypes * self._etype.size  # position in the view's data space (bytes)
        if ft.is_contiguous:
            return [(self._disp + pos, nbytes)]
        tile_index, skip = divmod(pos, ft.size)
        tile_base = self._disp + tile_index * ft.extent
        typemap = ft.blocks()
        blocks: List[Block] = []
        remaining = nbytes
        while remaining > 0:
            for off, length in typemap:
                if skip >= length:  # block lies wholly before the start position
                    skip -= length
                    continue
                start = tile_base + off + skip
                take = min(length - skip, remaining)
                if blocks and blocks[-1][0] + blocks[-1][1] == start:
                    blocks[-1] = (blocks[-1][0], blocks[-1][1] + take)
                else:
                    blocks.append((start, take))
                skip = 0
                remaining -= take
                if remaining == 0:
                    break
            tile_base += ft.extent
        return blocks

    @staticmethod
    def _check_limit(nbytes: int) -> None:
        if nbytes > MAX_IO_BYTES:
            raise CountLimitError(
                f"single MPI-IO operation of {nbytes} bytes exceeds the 2 GB ROMIO limit; "
                "read the file in smaller blocks (see Algorithm 1)"
            )

    def _read_blocks(self, blocks: Sequence[Block]) -> bytes:
        # join hands a lone pread buffer back as-is: no copy of a one-block read
        return b"".join([self._handle.pread(off, length) for off, length in blocks])

    def _write_blocks(self, blocks: Sequence[Block], data: bytes) -> int:
        pos = 0
        written = 0
        for off, length in blocks:
            chunk = data[pos : pos + length]
            written += self._handle.pwrite(off, chunk)
            pos += length
        return written

    # ------------------------------------------------------------------ #
    # Level 0: independent reads
    # ------------------------------------------------------------------ #
    def read_at(self, offset_etypes: int, nbytes: int) -> bytes:
        """Independent read of *nbytes* of view data starting at the given
        etype offset (``MPI_File_read_at``).

        Timing assumes the SPMD pattern of the paper's Level-0 experiments:
        every rank of the communicator issues a similar-sized independent read
        at the same moment (block-cyclic offsets), so OST and NIC contention
        are modelled even though the call itself is not collective.  Set the
        ``independent_concurrency`` hint to override the assumed number of
        concurrent readers (1 disables contention modelling).
        """
        self._check_limit(nbytes)
        blocks = self._view_blocks(offset_etypes, nbytes)
        data = self._read_blocks(blocks)

        concurrency = self.info.get_int("independent_concurrency", self.comm.size)
        concurrency = max(1, min(concurrency, self.comm.size))
        my_rank = self.comm.rank
        requests = []
        span = sum(length for _, length in blocks)
        for i in range(concurrency):
            shift = (i - my_rank) * span
            ranges = tuple((max(0, off + shift), length) for off, length in blocks)
            requests.append(ReadRequest(rank=i, ranges=ranges))
        elapsed = self.fs.read_time(self.path, requests)
        self.comm.clock.advance(elapsed, category="io")
        return data

    def read_at_nb(self, offset_etypes: int, nbytes: int) -> bytes:
        """Independent read with no contention model (single-client timing)."""
        self._check_limit(nbytes)
        blocks = self._view_blocks(offset_etypes, nbytes)
        data = self._read_blocks(blocks)
        req = ReadRequest(rank=self.comm.rank, ranges=tuple(blocks))
        elapsed = self.fs.read_time(self.path, [req])
        self.comm.clock.advance(elapsed, category="io")
        return data

    # ------------------------------------------------------------------ #
    # Level 1 / 3: collective reads
    # ------------------------------------------------------------------ #
    def _collective_read(self, blocks: Sequence[Block]) -> bytes:
        """Common two-phase machinery for ``read_at_all`` / ``read_all``."""
        data = self._read_blocks(blocks)
        my_req = ReadRequest(rank=self.comm.rank, ranges=tuple(blocks))
        all_reqs = self.comm.allgather(my_req)
        elapsed, plan = collective_read_time(self.fs, self.path, all_reqs, self.info)
        self.last_plan = plan
        self.comm.clock.advance(elapsed, category="io")
        self.comm.barrier()
        return data

    def read_at_all(self, offset_etypes: int, nbytes: int) -> bytes:
        """Collective contiguous read (``MPI_File_read_at_all``, Level 1)."""
        self._check_limit(nbytes)
        blocks = self._view_blocks(offset_etypes, nbytes)
        return self._collective_read(blocks)

    def read_all(self, nbytes: int) -> bytes:
        """Collective read through the current view at the individual file
        pointer (Level 3 when the view's filetype is non-contiguous)."""
        self._check_limit(nbytes)
        blocks = self._view_blocks(self._pointer, nbytes)
        data = self._collective_read(blocks)
        self._pointer += math.ceil(len(data) / self._etype.size)
        return data

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def write_at(self, offset_etypes: int, data: bytes) -> int:
        """Independent write of view data at the given etype offset."""
        self._check_limit(len(data))
        blocks = self._view_blocks(offset_etypes, len(data))
        written = self._write_blocks(blocks, data)
        req = ReadRequest(rank=self.comm.rank, ranges=tuple(blocks))
        self.comm.clock.advance(self.fs.write_time(self.path, [req]), category="io")
        return written

    def write_at_all(self, offset_etypes: int, data: bytes) -> int:
        """Collective write (two-phase timing, like :meth:`read_at_all`)."""
        self._check_limit(len(data))
        blocks = self._view_blocks(offset_etypes, len(data))
        written = self._write_blocks(blocks, data)
        my_req = ReadRequest(rank=self.comm.rank, ranges=tuple(blocks))
        all_reqs = self.comm.allgather(my_req)
        elapsed, plan = collective_read_time(self.fs, self.path, all_reqs, self.info)
        self.last_plan = plan
        self.comm.clock.advance(elapsed, category="io")
        self.comm.barrier()
        return written

    def write_all(self, data: bytes) -> int:
        """Collective write through the current view at the individual pointer."""
        self._check_limit(len(data))
        blocks = self._view_blocks(self._pointer, len(data))
        written = self._write_blocks(blocks, data)
        my_req = ReadRequest(rank=self.comm.rank, ranges=tuple(blocks))
        all_reqs = self.comm.allgather(my_req)
        elapsed, _ = collective_read_time(self.fs, self.path, all_reqs, self.info)
        self.comm.clock.advance(elapsed, category="io")
        self.comm.barrier()
        self._pointer += math.ceil(len(data) / self._etype.size)
        return written
