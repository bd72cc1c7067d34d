"""Distributed spatial join (the paper's exemplar end-to-end application).

"Given two spatial datasets R and S and a spatial join predicate θ (e.g.,
overlap, contain, intersect), spatial join returns the set of all pairs (r, s)
where r ∈ R, s ∈ S, and θ is true for (r, s)."  The implementation follows the
filter-and-refine recipe per grid cell:

* **filter** — build an STR-packed R-tree over the cell's right-layer MBRs and
  probe it with the left-layer MBRs,
* **refine** — evaluate the exact predicate on every candidate pair,
* **duplicate avoidance** — because geometries spanning several cells are
  replicated, a pair is reported only by the cell that owns the reference
  point (the lower-left corner of the pair's MBR intersection), "carried out
  later in the refinement phase" exactly as §4 describes.  Ownership is the
  grid's floor function (:meth:`repro.index.GridCell.owns_point`), the same
  one that replicated both operands, so the owner holds both and is unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..geometry import Envelope, Geometry, predicates
from ..index import GridCell, STRtree
from ..pfs import SimulatedFilesystem
from .framework import SpatialComputation
from .grid_partition import GridPartitionConfig
from .partition import PartitionConfig

__all__ = [
    "JoinPair",
    "SpatialJoin",
    "join_cell",
]

Predicate = Callable[[Geometry, Geometry], bool]


@dataclass(frozen=True)
class JoinPair:
    """One result pair of the spatial join."""

    left: Geometry
    right: Geometry
    cell_id: int

    def keys(self) -> Tuple[Any, Any]:
        """Stable identification of the pair (userdata when present, WKT
        otherwise) — useful for comparing against a sequential baseline."""
        left_key = self.left.userdata if self.left.userdata is not None else self.left.wkt()
        right_key = self.right.userdata if self.right.userdata is not None else self.right.wkt()
        return (left_key, right_key)


def _reference_point(a: Envelope, b: Envelope) -> Tuple[float, float]:
    """Lower-left corner of the MBR intersection (the classic duplicate-
    avoidance reference point)."""
    inter = a.intersection(b)
    return (inter.minx, inter.miny)


def _cell_reports_pair(cell: GridCell, a: Envelope, b: Envelope) -> bool:
    """Duplicate avoidance: of the cells both (intersecting) MBRs were
    replicated into, only the owner of their reference point reports them."""
    return cell.owns_point(*_reference_point(a, b))


def join_cell(
    cell: GridCell,
    left: Sequence[Geometry],
    right: Sequence[Geometry],
    predicate: Predicate = predicates.intersects,
) -> List[JoinPair]:
    """Filter-and-refine join of one cell's two geometry collections."""
    if not left or not right:
        return []
    tree: STRtree = STRtree((g.envelope, g) for g in right)
    results: List[JoinPair] = []
    for lg in left:
        lenv = lg.envelope
        for rg in tree.query(lenv):
            renv = rg.envelope
            if not _cell_reports_pair(cell, lenv, renv):
                continue
            if predicate(lg, rg):
                results.append(JoinPair(lg, rg, cell.cell_id))
    return results


class SpatialJoin(SpatialComputation):
    """Distributed spatial join over two WKT layers.

    Example::

        join = SpatialJoin(fs, grid_config=GridPartitionConfig(num_cells=256))
        result = join.run(comm, "datasets/lakes.wkt", "datasets/cemetery.wkt")
        pairs = result.local_results          # this rank's join pairs
    """

    def __init__(
        self,
        fs: SimulatedFilesystem,
        predicate: Predicate = predicates.intersects,
        partition_config: Optional[PartitionConfig] = None,
        grid_config: Optional[GridPartitionConfig] = None,
        strategy: str = "message",
        exchange_window: Optional[int] = None,
    ) -> None:
        super().__init__(fs, partition_config, grid_config, strategy, exchange_window)
        self.predicate = predicate

    def refine(
        self,
        cell: GridCell,
        left: Sequence[Geometry],
        right: Sequence[Geometry],
    ) -> List[JoinPair]:
        return join_cell(cell, left, right, self.predicate)
