"""Grid-based global spatial partitioning.

After file partitioning, every rank holds an arbitrary subset of geometries.
To restore spatial locality the system (Figure 1 / Figure 2 of the paper):

1. reduces the per-rank local MBRs with ``MPI_UNION`` to obtain the global
   extent,
2. lays a uniform cell grid over the extent (the cell is the unit task),
3. locates each local geometry's MBR on the grid with the grid's floor
   arithmetic (:meth:`repro.index.UniformGrid.cells_for_envelope`),
   replicating geometries that span several cells,
4. exchanges the serialised geometries all-to-all so each rank ends up with
   the cells assigned to it, cell *i* to rank ``i % nprocs`` (round-robin).

**Deviation from §4.**  The paper probes "an R-tree … built by inserting the
individual cell boundaries".  A tree over cell rectangles is what a
*non-uniform* cell set (adaptive or recursively split cells) would need; on a
uniform grid the overlapped cells are two integer ranges, and the same floor
function also names the one cell that owns a point.  That second use decides
it: duplicate avoidance and the store's home-cell rule need replication
and point ownership to agree exactly, which one monotone function does by
construction and a closed-rectangle probe beside it does not (a point on a
cell edge is in two closed rectangles, and ``minx + c·w`` is not the float
the floor function switches at).  See :mod:`repro.index.grid`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..geometry import Envelope, Geometry
from ..index import UniformGrid, round_robin_mapping
from ..mpisim import Communicator
from .spatial_ops import MPI_UNION

__all__ = [
    "GridPartitionConfig",
    "LocalPartition",
    "compute_global_extent",
    "build_grid",
    "assign_to_cells",
    "partition_geometries",
]


@dataclass
class GridPartitionConfig:
    """Parameters of the global spatial partitioning step."""

    #: total number of grid cells (the paper sweeps this in Figure 17)
    num_cells: int = 64


@dataclass
class LocalPartition:
    """A rank's view of the partitioned data."""

    grid: UniformGrid
    cell_to_rank: Dict[int, int]
    #: geometries grouped by the cells owned by this rank (after exchange)
    cells: Dict[int, List[Geometry]]
    #: number of geometry replicas this rank produced during assignment
    replicas_sent: int = 0


def compute_global_extent(comm: Communicator, geometries: Sequence[Geometry]) -> Envelope:
    """All-reduce of the local MBRs with the ``MPI_UNION`` operator.

    This is the paper's flagship use of the spatial reduction operators: each
    process contributes the union of its local geometry MBRs and receives the
    global grid extent.
    """
    local = Envelope.empty()
    for geom in geometries:
        local = local.union(geom.envelope)
    return comm.allreduce(local, MPI_UNION)


def build_grid(extent: Envelope, num_cells: int) -> UniformGrid:
    """Uniform grid of approximately *num_cells* cells over *extent*."""
    return UniformGrid.with_cell_count(extent, num_cells)


def assign_to_cells(
    grid: UniformGrid,
    geometries: Iterable[Geometry],
) -> Dict[int, List[Geometry]]:
    """Map each geometry to every cell its MBR overlaps (with replication)."""
    cells: Dict[int, List[Geometry]] = {}
    for geom in geometries:
        for cid in grid.cells_for_envelope(geom.envelope):
            cells.setdefault(cid, []).append(geom)
    return cells


def partition_geometries(
    comm: Communicator,
    geometries: Sequence[Geometry],
    config: Optional[GridPartitionConfig] = None,
    exchange_window: Optional[int] = None,
) -> LocalPartition:
    """Full global spatial partitioning of this rank's local geometries.

    Returns the cells (and their geometries) owned by this rank after the
    all-to-all exchange.  Phase timing is charged to the calling rank's
    virtual clock under the categories ``partition`` (grid projection) and
    ``comm`` (serialisation + exchange), matching the breakdowns reported in
    Figures 17–20.
    """
    from .exchange import exchange_cells  # local import to avoid a cycle

    config = config or GridPartitionConfig()
    extent = compute_global_extent(comm, geometries)
    if extent.is_empty:
        # No data anywhere: an empty grid with a single degenerate cell.
        grid = UniformGrid(Envelope(0.0, 0.0, 1.0, 1.0), 1, 1)
        return LocalPartition(grid=grid, cell_to_rank={0: 0}, cells={})

    grid = build_grid(extent, config.num_cells)
    mapping = round_robin_mapping(grid.num_cells, comm.size)

    with comm.clock.compute(category="partition"):
        local_cells = assign_to_cells(grid, geometries)
    replicas = sum(len(v) for v in local_cells.values())

    owned = exchange_cells(comm, local_cells, mapping, window=exchange_window)
    return LocalPartition(
        grid=grid,
        cell_to_rank=mapping,
        cells=owned,
        replicas_sent=replicas,
    )
