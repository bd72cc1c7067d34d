"""Uniform cell grid.

The paper's spatial partitioning projects every geometry onto a cellular grid
(Figure 1): a cell is "an abstract type to represent a unit task", a subset of
cells is assigned to each process, and geometries spanning several cells are
replicated into each.  :class:`UniformGrid` implements the cell geometry and
the geometry→cells mapping; the distributed machinery on top of it lives in
:mod:`repro.core.grid_partition`.

**One cell-location rule.**  Which cells an MBR touches and which one cell
owns a point are both answered by :meth:`UniformGrid._floor`: along each axis
``floor((v - origin) / cell_width)`` clamped to the grid, so cells are
half-open ``[c·w, (c+1)·w)`` and closed at the extent's far edges.
Replication (:meth:`~UniformGrid.cells_for_envelope`), a record's home
cell in the store and a pair's reference-point owner
(:meth:`~UniformGrid.cell_for_point`) all go through it.  The function is
monotone, so a point between an MBR's ``min`` and ``max`` is owned by a cell
inside that MBR's replication set — the exactly-once rule of the join, the
range query and the store's ownership needs nothing else.  The
:class:`GridCell` rectangles are for display and pruning, never for
ownership: ``minx + c·w`` and the floor function are two tilings that differ
in the last ulp on some edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..geometry import Envelope

__all__ = ["GridCell", "UniformGrid", "round_robin_mapping"]


@dataclass(frozen=True)
class GridCell:
    """One cell of the uniform grid — the unit task of the system."""

    cell_id: int
    row: int
    col: int
    envelope: Envelope
    #: the grid that made the cell (``None`` for a hand-built one)
    grid: Optional["UniformGrid"] = field(default=None, compare=False, repr=False)

    def __repr__(self) -> str:  # pragma: no cover
        return f"GridCell(id={self.cell_id}, row={self.row}, col={self.col})"

    def owns_point(self, x: float, y: float) -> bool:
        """Whether this is the one cell of its grid that owns the point
        (:meth:`UniformGrid.cell_for_point`).  A hand-built cell is a
        one-cell world: it owns its closed rectangle."""
        if self.grid is None:
            return self.envelope.contains_point(x, y)
        return self.grid.cell_for_point(x, y) == self.cell_id


class UniformGrid:
    """A ``rows x cols`` uniform grid over a rectangular extent."""

    def __init__(self, extent: Envelope, rows: int, cols: int) -> None:
        if extent.is_empty:
            raise ValueError("grid extent must not be empty")
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be >= 1")
        # Degenerate extents (all geometries on one line or one point) are
        # padded so every cell keeps a well-formed rectangle.
        if extent.width == 0 or extent.height == 0:
            pad = max(extent.width, extent.height, 1.0) * 0.5
            extent = Envelope(
                extent.minx - (pad if extent.width == 0 else 0.0),
                extent.miny - (pad if extent.height == 0 else 0.0),
                extent.maxx + (pad if extent.width == 0 else 0.0),
                extent.maxy + (pad if extent.height == 0 else 0.0),
            )
        self.extent = extent
        self.rows = rows
        self.cols = cols
        self.cell_width = extent.width / cols
        self.cell_height = extent.height / rows

    # ------------------------------------------------------------------ #
    @staticmethod
    def with_cell_count(extent: Envelope, num_cells: int) -> "UniformGrid":
        """Build a roughly square grid with approximately *num_cells* cells.

        The paper's experiments sweep the total number of grid cells
        (Figure 17 uses powers of two up to 2048); this helper picks a
        rows × cols factorisation close to square.
        """
        if num_cells < 1:
            raise ValueError("num_cells must be >= 1")
        rows = int(math.sqrt(num_cells))
        while rows > 1 and num_cells % rows != 0:
            rows -= 1
        cols = num_cells // rows
        return UniformGrid(extent, rows, cols)

    # ------------------------------------------------------------------ #
    @property
    def num_cells(self) -> int:
        return self.rows * self.cols

    def __len__(self) -> int:
        return self.num_cells

    def cell_id(self, row: int, col: int) -> int:
        """Row-major cell id (the global output ordering used by
        non-contiguous writes in the paper)."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"cell ({row}, {col}) outside grid {self.rows}x{self.cols}")
        return row * self.cols + col

    def cell(self, row: int, col: int) -> GridCell:
        minx = self.extent.minx + col * self.cell_width
        miny = self.extent.miny + row * self.cell_height
        maxx = self.extent.maxx if col == self.cols - 1 else minx + self.cell_width
        maxy = self.extent.maxy if row == self.rows - 1 else miny + self.cell_height
        return GridCell(self.cell_id(row, col), row, col, Envelope(minx, miny, maxx, maxy), self)

    def cell_by_id(self, cell_id: int) -> GridCell:
        if not (0 <= cell_id < self.num_cells):
            raise IndexError(f"cell id {cell_id} outside grid of {self.num_cells} cells")
        return self.cell(cell_id // self.cols, cell_id % self.cols)

    def cells(self) -> Iterator[GridCell]:
        for row in range(self.rows):
            for col in range(self.cols):
                yield self.cell(row, col)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _floor(offset: float, width: float, n: int) -> int:
        """The cell-location rule along one axis (module docstring):
        ``floor(offset / width)`` clamped to ``[0, n - 1]``.  The clamp is
        done in float space, so ±inf and 1e308 are boundary cells; the result
        is monotone in *offset*."""
        f = offset / width
        if f >= n - 1:
            return n - 1
        return int(f) if f > 0 else 0

    def _col(self, x: float) -> int:
        return self._floor(x - self.extent.minx, self.cell_width, self.cols)

    def _row(self, y: float) -> int:
        return self._floor(y - self.extent.miny, self.cell_height, self.rows)

    def cells_for_envelope(self, env: Envelope) -> List[int]:
        """Ids of every cell the envelope overlaps (the replication set),
        ascending.

        A geometry spanning multiple cells is "simply replicated to these
        cells" (paper §4); this is the mapping that drives replication.
        Envelopes outside the extent are clamped to the nearest boundary
        cells so no geometry is ever dropped; an MBR that is not a box (a
        NaN bound) is a :class:`ValueError`.
        """
        if env.is_empty:
            return []
        if not (env.minx <= env.maxx and env.miny <= env.maxy):  # NaN compares false
            raise ValueError(f"cannot locate {env!r} on the grid: it is not a box")
        col_lo, col_hi = self._col(env.minx), self._col(env.maxx)
        ids: List[int] = []
        for row in range(self._row(env.miny), self._row(env.maxy) + 1):
            base = row * self.cols
            ids.extend(range(base + col_lo, base + col_hi + 1))
        return ids

    def cell_for_point(self, x: float, y: float) -> int:
        """Id of the one cell that owns the point (clamped to the extent);
        for an MBR's lower-left corner, the lowest cell of its replication
        set."""
        if x != x or y != y:
            raise ValueError(f"cannot locate point ({x}, {y}) on the grid")
        return self._row(y) * self.cols + self._col(x)


# --------------------------------------------------------------------------- #
# cell → rank mapping
# --------------------------------------------------------------------------- #
def round_robin_mapping(num_cells: int, num_ranks: int) -> Dict[int, int]:
    """The paper's declustering mapping, the one the partitioning uses: cell
    *i* goes to rank ``i % num_ranks``, so neighbouring (similarly loaded)
    cells land on different ranks."""
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    return {cid: cid % num_ranks for cid in range(num_cells)}
