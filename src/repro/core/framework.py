"""Filter-and-refine framework for distributed spatial computations.

Figure 7 of the paper lists the steps needed to parallelise a spatial
computation with MPI-Vector-IO: parallel read + parse, global spatial
partitioning, all-to-all exchange, then per-cell *refine* tasks scheduled by
the cell→rank mapping.  :class:`SpatialComputation` is that driver; spatial
join (:mod:`repro.core.join`), distributed indexing
(:mod:`repro.core.indexing`) and range query (:mod:`repro.core.query`) extend
it by overriding :meth:`SpatialComputation.refine`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from ..geometry import Geometry
from ..index import GridCell, round_robin_mapping
from ..mpisim import Communicator
from ..pfs import SimulatedFilesystem
from .exchange import exchange_cells
from .grid_partition import (
    GridPartitionConfig,
    assign_to_cells,
    build_grid,
    compute_global_extent,
)
from .partition import PartitionConfig
from .reader import VectorIO

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..store.sharded import DistributedStoreServer

__all__ = ["PhaseBreakdown", "ComputationResult", "SpatialComputation"]


@dataclass
class PhaseBreakdown:
    """Per-phase simulated seconds for one rank (the stacked-bar data of the
    paper's Figures 17–20)."""

    io: float = 0.0
    parse: float = 0.0
    partition: float = 0.0
    communication: float = 0.0
    refine: float = 0.0
    total: float = 0.0

    @staticmethod
    def from_clock(comm: Communicator) -> "PhaseBreakdown":
        clock = comm.clock
        return PhaseBreakdown(
            io=clock.category("io"),
            parse=clock.category("parse"),
            partition=clock.category("partition"),
            communication=clock.category("comm") + clock.category("comm_pack") + clock.category("wait"),
            refine=clock.category("refine"),
            total=clock.now,
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "io": self.io,
            "parse": self.parse,
            "partition": self.partition,
            "communication": self.communication,
            "refine": self.refine,
            "total": self.total,
        }


@dataclass
class ComputationResult:
    """Per-rank result of a distributed spatial computation."""

    #: refine outputs of the cells owned by this rank
    local_results: List[Any]
    #: cells owned by this rank
    owned_cells: List[int]
    #: per-phase timing of this rank
    breakdown: PhaseBreakdown
    #: number of geometries this rank held after the exchange
    local_geometries: int = 0


class SpatialComputation(ABC):
    """Base driver for filter-and-refine computations over one or two layers."""

    def __init__(
        self,
        fs: SimulatedFilesystem,
        partition_config: Optional[PartitionConfig] = None,
        grid_config: Optional[GridPartitionConfig] = None,
        strategy: str = "message",
        exchange_window: Optional[int] = None,
    ) -> None:
        self.fs = fs
        self.partition_config = partition_config or PartitionConfig()
        self.grid_config = grid_config or GridPartitionConfig()
        self.strategy = strategy
        self.exchange_window = exchange_window

    # ------------------------------------------------------------------ #
    # extension point
    # ------------------------------------------------------------------ #
    @abstractmethod
    def refine(
        self,
        cell: GridCell,
        left: Sequence[Geometry],
        right: Sequence[Geometry],
    ) -> List[Any]:
        """Exact computation for one cell.

        *left* holds the cell's geometries from the first layer and *right*
        from the second layer (empty for single-layer computations).
        """

    # ------------------------------------------------------------------ #
    # driver
    # ------------------------------------------------------------------ #
    def run(
        self,
        comm: Communicator,
        left_path: str,
        right_path: Optional[str] = None,
    ) -> ComputationResult:
        """Execute the full pipeline on the calling rank."""
        vio = VectorIO(self.fs, self.partition_config, self.strategy)

        left_report = vio.read_geometries(comm, left_path)
        right_geoms: List[Geometry] = []
        if right_path is not None:
            right_report = vio.read_geometries(comm, right_path)
            right_geoms = right_report.geometries
        left_geoms = left_report.geometries
        return self._run_partitioned(comm, left_geoms, right_geoms, right_path is not None)

    def run_from_store(
        self,
        comm: Communicator,
        server: "DistributedStoreServer",
        right_path: Optional[str] = None,
    ) -> ComputationResult:
        """Execute the pipeline with the left layer read from a sharded store.

        Instead of re-reading and re-parsing the raw dataset, every rank
        decodes the pages of its own shard(s) through the server's SIEVE page
        caches; the store's ownership rule guarantees each logical record
        enters the pipeline exactly once across ranks, after which the usual
        extent / grid / exchange / refine phases apply unchanged.
        """
        left_geoms = [g for _, g in server.local_records()]
        right_geoms: List[Geometry] = []
        if right_path is not None:
            vio = VectorIO(self.fs, self.partition_config, self.strategy)
            right_geoms = vio.read_geometries(comm, right_path).geometries
        return self._run_partitioned(comm, left_geoms, right_geoms, right_path is not None)

    def _run_partitioned(
        self,
        comm: Communicator,
        left_geoms: Sequence[Geometry],
        right_geoms: Sequence[Geometry],
        two_layers: bool,
    ) -> ComputationResult:
        """Shared back half of the pipeline: extent, grid, exchange, refine."""
        # Global extent covers both layers (single MPI_UNION reduction).
        extent = compute_global_extent(comm, list(left_geoms) + list(right_geoms))
        if extent.is_empty:
            return ComputationResult([], [], PhaseBreakdown.from_clock(comm), 0)

        grid = build_grid(extent, self.grid_config.num_cells)
        mapping = round_robin_mapping(grid.num_cells, comm.size)

        with comm.clock.compute(category="partition"):
            left_cells = assign_to_cells(grid, left_geoms)
            right_cells = assign_to_cells(grid, right_geoms) if right_geoms else {}

        owned_left = exchange_cells(comm, left_cells, mapping, window=self.exchange_window)
        owned_right = (
            exchange_cells(comm, right_cells, mapping, window=self.exchange_window)
            if two_layers
            else {}
        )

        my_cells = sorted(set(owned_left) | set(owned_right))
        results: List[Any] = []
        with comm.clock.compute(category="refine"):
            for cell_id in my_cells:
                cell = grid.cell_by_id(cell_id)
                results.extend(
                    self.refine(cell, owned_left.get(cell_id, []), owned_right.get(cell_id, []))
                )

        local_count = sum(len(v) for v in owned_left.values()) + sum(
            len(v) for v in owned_right.values()
        )
        return ComputationResult(
            local_results=results,
            owned_cells=my_cells,
            breakdown=PhaseBreakdown.from_clock(comm),
            local_geometries=local_count,
        )
