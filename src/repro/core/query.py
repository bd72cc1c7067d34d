"""Batch range (window) queries.

"For spatial query workload, the second collection can be treated as
geometries from batch query" (§4.3): the query rectangles are simply the
second layer of the filter-and-refine framework, so the same partitioning and
exchange machinery applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..geometry import Envelope, Geometry, Polygon
from ..index import GridCell
from ..mpisim import Communicator
from ..pfs import SimulatedFilesystem
from .framework import SpatialComputation
from .grid_partition import GridPartitionConfig
from .join import join_cell
from .partition import PartitionConfig
from .reader import VectorIO

__all__ = ["QueryMatch", "RangeQuery"]


@dataclass(frozen=True)
class QueryMatch:
    """One (query window, matching geometry) result."""

    query_id: Any
    geometry: Geometry
    cell_id: int


class RangeQuery(SpatialComputation):
    """Distributed batch range query over one data layer.

    The query batch is supplied in memory (a list of envelopes) rather than as
    a file; every rank contributes the slice of the batch it was handed and
    the framework redistributes the query windows alongside the data, exactly
    like a second dataset.
    """

    def __init__(
        self,
        fs: SimulatedFilesystem,
        queries: Sequence[Tuple[Any, Envelope]],
        partition_config: Optional[PartitionConfig] = None,
        grid_config: Optional[GridPartitionConfig] = None,
    ) -> None:
        super().__init__(fs, partition_config, grid_config)
        self.queries = list(queries)

    # ------------------------------------------------------------------ #
    def refine(
        self,
        cell: GridCell,
        left: Sequence[Geometry],
        right: Sequence[Geometry],
    ) -> List[QueryMatch]:
        # the windows probe a tree over the data: a join with the layers swapped
        return [
            QueryMatch(query_id=pair.left.userdata, geometry=pair.right, cell_id=pair.cell_id)
            for pair in join_cell(cell, right, left)
        ]

    # ------------------------------------------------------------------ #
    def execute(self, comm: Communicator, data_path: str) -> List[QueryMatch]:
        """Run the batch query; every rank returns the matches of its cells."""
        # Convert the batch to polygon geometries carrying the query id, and
        # hand an equal slice to every rank (the framework redistributes them).
        my_slice = [
            Polygon.from_envelope(env, userdata=qid)
            for i, (qid, env) in enumerate(self.queries)
            if i % comm.size == comm.rank
        ]
        vio = VectorIO(self.fs, self.partition_config, self.strategy)
        data = vio.read_geometries(comm, data_path).geometries
        return self._run_partitioned(comm, data, my_slice, True).local_results
