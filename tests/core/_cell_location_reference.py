"""The closed-rectangle cell probe that ``UniformGrid``'s floor arithmetic
replaced (PR 23), kept as a differential oracle — the way
``tests/store/_dedup_reference.py`` keeps the dict fold.

Replication used to ask a dynamic R-tree over the ``GridCell`` rectangles
which of them *intersect* an MBR, and duplicate avoidance asked whether a
cell's rectangle *contains* the reference point; both comparisons are closed,
so a coordinate on a cell edge belonged to the cells on either side.  This is
that answer by brute force over ``grid.cells()``, without the tree.
``tests/core/test_cell_location.py`` checks the live rule against it.  Not
used by any pipeline or serving path.
"""

from typing import List

from repro.geometry import Envelope
from repro.index import UniformGrid


def closed_probe(grid: UniformGrid, env: Envelope) -> List[int]:
    """Ids of the cells whose closed rectangle intersects *env*.  Empty when
    *env* lies outside the closed extent (the retired path then fell back to
    the grid's clamping arithmetic, so there is nothing to compare)."""
    return [cell.cell_id for cell in grid.cells() if cell.envelope.intersects(env)]


def closed_owners(grid: UniformGrid, x: float, y: float) -> List[int]:
    """Ids of the cells whose closed rectangle contains the point: the cells
    that each reported a pair with this reference point."""
    return [cell.cell_id for cell in grid.cells() if cell.envelope.contains_point(x, y)]
