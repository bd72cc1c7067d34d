"""MPI-Vector-IO core: parallel I/O, partitioning and spatial computation.

The typical end-to-end use (mirroring the paper's Figure 7) is::

    from repro import mpisim
    from repro.core import SpatialJoin, GridPartitionConfig
    from repro.pfs import LustreFilesystem

    fs = LustreFilesystem("/tmp/lustre-sim")
    # ... create datasets/lakes.wkt and datasets/cemetery.wkt on fs ...

    def program(comm):
        join = SpatialJoin(fs, grid_config=GridPartitionConfig(num_cells=64))
        result = join.run(comm, "datasets/lakes.wkt", "datasets/cemetery.wkt")
        return len(result.local_results), result.breakdown.as_dict()

    out = mpisim.run_spmd(program, nprocs=8)
"""

from .exchange import deserialise_cell_group, exchange_cells, serialise_cell_group
from .framework import ComputationResult, PhaseBreakdown, SpatialComputation
from .grid_partition import (
    GridPartitionConfig,
    assign_to_cells,
    build_grid,
    compute_global_extent,
    partition_geometries,
)
from .indexing import DistributedIndex
from .join import SpatialJoin, join_cell
from .noncontig import (
    RecordIndex,
    build_record_index,
    read_fixed_records_roundrobin,
    read_variable_records_roundrobin,
)
from .parsers import WKTParser, split_records
from .partition import (
    MessagePartitioner,
    OverlapPartitioner,
    PartitionConfig,
    PartitionResult,
    read_records,
)
from .query import RangeQuery
from .reader import VectorIO
from .spatial_ops import (
    MPI_MAX_LINE,
    MPI_MAX_POINT,
    MPI_MAX_RECT,
    MPI_MIN_LINE,
    MPI_MIN_POINT,
    MPI_MIN_RECT,
    MPI_UNION,
    geometry_extent_op,
)
from .spatial_types import (
    MPI_LINE,
    MPI_POINT,
    MPI_RECT,
    MPI_RECT_STRUCT,
    make_fixed_polygon_type,
    make_multi_line_type,
    make_multi_point_type,
    pack_lines,
    pack_points,
    pack_rects,
    unpack_lines,
    unpack_points,
    unpack_rects,
)

__all__ = [
    # facade
    "VectorIO",
    # parsing
    "WKTParser",
    "split_records",
    # contiguous partitioning
    "PartitionConfig",
    "PartitionResult",
    "MessagePartitioner",
    "OverlapPartitioner",
    "read_records",
    # non-contiguous access
    "RecordIndex",
    "build_record_index",
    "read_fixed_records_roundrobin",
    "read_variable_records_roundrobin",
    # spatial MPI types and operators
    "MPI_POINT",
    "MPI_LINE",
    "MPI_RECT",
    "MPI_RECT_STRUCT",
    "MPI_UNION",
    "MPI_MIN_RECT",
    "MPI_MAX_RECT",
    "MPI_MIN_LINE",
    "MPI_MAX_LINE",
    "MPI_MIN_POINT",
    "MPI_MAX_POINT",
    "geometry_extent_op",
    "make_multi_point_type",
    "make_multi_line_type",
    "make_fixed_polygon_type",
    "pack_points",
    "unpack_points",
    "pack_rects",
    "unpack_rects",
    "pack_lines",
    "unpack_lines",
    # grid partitioning and exchange
    "GridPartitionConfig",
    "compute_global_extent",
    "build_grid",
    "assign_to_cells",
    "partition_geometries",
    "exchange_cells",
    "serialise_cell_group",
    "deserialise_cell_group",
    # framework and applications
    "SpatialComputation",
    "ComputationResult",
    "PhaseBreakdown",
    "SpatialJoin",
    "join_cell",
    "DistributedIndex",
    "RangeQuery",
]
