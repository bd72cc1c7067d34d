"""Spatial indexes: the STR-packed R-tree, the uniform grid and the Hilbert curve."""

from .grid import GridCell, UniformGrid, block_mapping, round_robin_mapping
from .rtree import RTreeStats, STRtree
from .sfc import hilbert_encode, sort_by_hilbert, spatial_visit_order

__all__ = [
    "STRtree",
    "RTreeStats",
    "UniformGrid",
    "GridCell",
    "round_robin_mapping",
    "block_mapping",
    "hilbert_encode",
    "sort_by_hilbert",
    "spatial_visit_order",
]
