"""MPI derived datatypes.

The paper leans on derived datatypes in three places:

* fixed-size binary records (points / MBRs) read straight into struct-like
  types (Figure 12 compares ``MPI_Type_struct`` against a user-assembled
  ``MPI_Type_contiguous``),
* non-contiguous file views built from ``MPI_Type_vector`` (fixed records,
  Figure 15) and ``MPI_Type_indexed`` (variable-length polygons, Figure 16),
* the spatial types ``MPI_POINT`` / ``MPI_LINE`` / ``MPI_RECT`` of Table 2,
  which are thin wrappers over these constructors
  (see :mod:`repro.core.spatial_types`).

A datatype is described by its *typemap*: a list of ``(offset, nbytes)``
blocks covering one element, plus an *extent* (the stride between successive
elements).  That is exactly the information MPI implementations use to build
file views and pack/unpack non-contiguous buffers, and it is what the
simulated MPI-IO layer consumes.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

__all__ = [
    "Datatype",
    "BasicType",
    "MPI_BYTE",
    "MPI_INT",
    "MPI_FLOAT",
    "MPI_DOUBLE",
    "create_contiguous",
    "create_vector",
    "create_indexed",
    "create_struct",
]

Block = Tuple[int, int]  # (byte offset, byte length)


class Datatype:
    """Base class for MPI datatypes.

    Subclasses must provide :attr:`size` (bytes of actual data per element),
    :attr:`extent` (span of one element including gaps) and
    :meth:`blocks` (the typemap for one element, sorted by offset).
    """

    name: str = "datatype"

    def __init__(self, size: int, extent: int, blocks: Sequence[Block]) -> None:
        self._size = int(size)
        self._extent = int(extent)
        self._blocks = self._coalesce(sorted((int(o), int(l)) for o, l in blocks))

    # -- MPI-style metadata ------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of data bytes in one element (``MPI_Type_size``)."""
        return self._size

    @property
    def extent(self) -> int:
        """Span of one element in a buffer or file (``MPI_Type_get_extent``)."""
        return self._extent

    def blocks(self) -> List[Block]:
        """Typemap of one element: ``[(offset, nbytes), ...]`` sorted by offset."""
        return list(self._blocks)

    @property
    def is_contiguous(self) -> bool:
        return len(self._blocks) == 1 and self._blocks[0] == (0, self._size) and self._extent == self._size

    # -- commit / free mirror the MPI API; a simulated type needs neither --- #
    def Commit(self) -> "Datatype":
        return self

    def Free(self) -> None:
        pass

    # -- layout expansion ---------------------------------------------------- #
    def layout(self, count: int, offset: int = 0) -> List[Block]:
        """Absolute byte blocks of *count* consecutive elements starting at
        byte *offset*; adjacent blocks are coalesced.

        This is the file-view expansion used by the MPI-IO layer: the
        number of resulting blocks is what makes non-contiguous access slow.
        A contiguous type is one block however many elements it spans, so the
        ``create_*`` constructors (which build their typemaps from runs laid
        out here) cost O(blocks), never O(bytes).
        """
        if self.is_contiguous:
            return [(offset, count * self._size)] if count > 0 else []
        blocks: List[Block] = []
        for i in range(count):
            base = offset + i * self._extent
            for off, length in self._blocks:
                blocks.append((base + off, length))
        return self._coalesce(blocks)

    @staticmethod
    def _coalesce(blocks: Sequence[Block]) -> List[Block]:
        merged: List[Block] = []
        for off, length in blocks:
            if length <= 0:
                continue
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + length)
            else:
                merged.append((off, length))
        return merged

    # -- pack / unpack -------------------------------------------------------- #
    def pack(self, buffer: bytes, count: int, offset: int = 0) -> bytes:
        """Gather the data bytes of *count* elements out of *buffer*."""
        out = bytearray()
        for off, length in self.layout(count, offset):
            out += buffer[off : off + length]
        return bytes(out)

    def unpack(self, data: bytes, count: int, buffer: bytearray) -> None:
        """Scatter packed *data* into *buffer* following the typemap."""
        pos = 0
        for off, length in self.layout(count):
            buffer[off : off + length] = data[pos : pos + length]
            pos += length

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{self.name} size={self._size} extent={self._extent} blocks={len(self._blocks)}>"


class BasicType(Datatype):
    """Primitive MPI type backed by a struct format character."""

    def __init__(self, name: str, fmt: str) -> None:
        nbytes = struct.calcsize(fmt)
        super().__init__(nbytes, nbytes, [(0, nbytes)])
        self.name = name


MPI_BYTE = BasicType("MPI_BYTE", "B")
MPI_INT = BasicType("MPI_INT", "i")
MPI_FLOAT = BasicType("MPI_FLOAT", "f")
MPI_DOUBLE = BasicType("MPI_DOUBLE", "d")


# --------------------------------------------------------------------------- #
# constructors
# --------------------------------------------------------------------------- #
def create_contiguous(count: int, oldtype: Datatype, name: str = "contiguous") -> Datatype:
    """``MPI_Type_contiguous``: *count* copies of *oldtype* back to back."""
    if count < 1:
        raise ValueError("count must be >= 1")
    dt = Datatype(count * oldtype.size, count * oldtype.extent, oldtype.layout(count))
    dt.name = name
    return dt


def create_vector(
    count: int, blocklength: int, stride: int, oldtype: Datatype, name: str = "vector"
) -> Datatype:
    """``MPI_Type_vector``: *count* blocks of *blocklength* elements separated
    by *stride* elements (stride measured in elements of *oldtype*)."""
    if count < 1 or blocklength < 1:
        raise ValueError("count and blocklength must be >= 1")
    if stride < blocklength:
        raise ValueError("stride must be >= blocklength")
    blocks: List[Block] = []
    for i in range(count):
        blocks.extend(oldtype.layout(blocklength, i * stride * oldtype.extent))
    size = count * blocklength * oldtype.size
    extent = ((count - 1) * stride + blocklength) * oldtype.extent
    dt = Datatype(size, extent, blocks)
    dt.name = name
    return dt


def create_indexed(
    blocklengths: Sequence[int],
    displacements: Sequence[int],
    oldtype: Datatype,
    name: str = "indexed",
) -> Datatype:
    """``MPI_Type_indexed``: variable-length blocks at arbitrary element
    displacements.  This is the constructor the paper uses for non-contiguous
    polygon reads: the preprocessed vertex-count and displacement arrays feed
    straight into it."""
    if len(blocklengths) != len(displacements):
        raise ValueError("blocklengths and displacements must have equal length")
    if len(blocklengths) == 0:
        raise ValueError("at least one block is required")
    blocks: List[Block] = []
    size = 0
    max_end = 0
    for bl, disp in zip(blocklengths, displacements):
        if bl < 0 or disp < 0:
            raise ValueError("blocklengths and displacements must be non-negative")
        blocks.extend(oldtype.layout(bl, disp * oldtype.extent))
        size += bl * oldtype.size
        max_end = max(max_end, (disp + bl) * oldtype.extent)
    dt = Datatype(size, max_end, blocks)
    dt.name = name
    return dt


def create_struct(
    blocklengths: Sequence[int],
    displacements: Sequence[int],
    types: Sequence[Datatype],
    name: str = "struct",
) -> Datatype:
    """``MPI_Type_create_struct``: heterogeneous members at byte displacements.

    Figure 12's ``MPI_Type_struct`` MBR record is
    ``create_struct([4], [0], [MPI_FLOAT])`` with the extent padded to the C
    struct size by the caller if needed.
    """
    if not (len(blocklengths) == len(displacements) == len(types)):
        raise ValueError("blocklengths, displacements and types must have equal length")
    if len(types) == 0:
        raise ValueError("at least one member is required")
    blocks: List[Block] = []
    size = 0
    max_end = 0
    for bl, disp, dt_member in zip(blocklengths, displacements, types):
        if bl < 0 or disp < 0:
            raise ValueError("blocklengths and displacements must be non-negative")
        blocks.extend(dt_member.layout(bl, disp))
        size += bl * dt_member.size
        max_end = max(max_end, disp + bl * dt_member.extent)
    dt = Datatype(size, max_end, blocks)
    dt.name = name
    return dt
