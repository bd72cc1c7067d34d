"""Distributed spatial indexing (Figure 20's workload).

The paper's framework "enables parallel spatial indexing … on an order of
magnitude larger datasets (indexing up to 700M geometries in 137 GB single
file in 90 seconds)".  The pipeline is the single-layer version of
filter-and-refine: read + parse, grid partition, exchange, then build one
STR-packed R-tree per owned cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..geometry import Envelope, Geometry
from ..index import GridCell, STRtree
from ..mpisim import Communicator, ops
from ..pfs import SimulatedFilesystem
from .framework import PhaseBreakdown, SpatialComputation
from .grid_partition import GridPartitionConfig
from .partition import PartitionConfig

__all__ = ["CellIndex", "DistributedIndex", "IndexBuildReport"]


@dataclass
class CellIndex:
    """An R-tree over one grid cell's geometries."""

    cell: GridCell
    tree: STRtree

    @property
    def num_items(self) -> int:
        return len(self.tree)


@dataclass
class IndexBuildReport:
    """Per-rank summary of a distributed index build."""

    cells: Dict[int, CellIndex]
    breakdown: PhaseBreakdown
    indexed_geometries: int

    def query_local(self, window: Envelope) -> List[Geometry]:
        """Query this rank's cells (no communication)."""
        out: List[Geometry] = []
        for ci in self.cells.values():
            if ci.cell.envelope.intersects(window):
                out.extend(ci.tree.query(window))
        return out


class DistributedIndex(SpatialComputation):
    """Builds per-cell R-trees for one vector layer."""

    def __init__(
        self,
        fs: SimulatedFilesystem,
        partition_config: Optional[PartitionConfig] = None,
        grid_config: Optional[GridPartitionConfig] = None,
        exchange_window: Optional[int] = None,
    ) -> None:
        super().__init__(fs, partition_config, grid_config, exchange_window=exchange_window)

    def refine(
        self,
        cell: GridCell,
        left: Sequence[Geometry],
        right: Sequence[Geometry],
    ) -> List[CellIndex]:
        tree: STRtree = STRtree((g.envelope, g) for g in left)
        return [CellIndex(cell=cell, tree=tree)]

    # ------------------------------------------------------------------ #
    def build(self, comm: Communicator, path: str) -> IndexBuildReport:
        """Build the distributed index and return this rank's portion."""
        result = self.run(comm, path)
        cells = {ci.cell.cell_id: ci for ci in result.local_results}
        indexed = sum(ci.num_items for ci in cells.values())
        return IndexBuildReport(cells=cells, breakdown=result.breakdown, indexed_geometries=indexed)

    def total_indexed(self, comm: Communicator, report: IndexBuildReport) -> int:
        """Total geometries indexed across the whole communicator (includes
        replicas of geometries spanning multiple cells)."""
        return comm.allreduce(report.indexed_geometries, ops.SUM)
