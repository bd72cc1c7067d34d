"""Reproduction of *MPI-Vector-IO: Parallel I/O and Partitioning for
Geospatial Vector Data* (Puri, Paudel, Prasad — ICPP 2018).

The package is organised as a set of substrates plus the paper's core
contribution:

``repro.geometry``
    A from-scratch geometry engine (GEOS substitute): points, linestrings,
    polygons, multi-geometries, envelopes/MBRs, WKT and WKB codecs, and the
    spatial predicates needed by the filter-and-refine pipeline.

``repro.index``
    Spatial indexes: the STR-packed R-tree, the uniform grid (whose floor
    arithmetic is the one cell-location rule) and the Hilbert curve.

``repro.mpisim``
    A thread-based SPMD MPI runtime with the communicator, point-to-point,
    collective, reduction-operator and derived-datatype semantics the paper
    relies on, plus per-rank virtual clocks for performance modelling.

``repro.pfs``
    Striped parallel-filesystem models (Lustre-like and GPFS-like) with an
    explicit I/O cost model.

``repro.io``
    An MPI-IO layer (independent and two-phase collective reads/writes, file
    views, hints) on top of ``repro.pfs``.

``repro.core``
    MPI-Vector-IO proper: spatial MPI datatypes and reduction operators,
    the WKT record parser, contiguous and non-contiguous file partitioning
    (including the paper's message-based Algorithm 1), grid-based spatial
    partitioning with all-to-all geometry exchange, and the filter-and-refine
    framework with spatial join, distributed indexing and range query on top.

``repro.store``
    Persistent partitioned spatial datastore: the pipeline's output (pages
    of WKB records, partition manifest, packed R-tree index) bulk-loaded
    once and served through a page cache on every later run.

``repro.datasets``
    Synthetic OSM-like dataset generators standing in for the paper's
    OpenStreetMap extracts.
"""

__version__ = "1.0.0"

__all__ = [
    "geometry",
    "index",
    "mpisim",
    "pfs",
    "io",
    "core",
    "store",
    "datasets",
]
