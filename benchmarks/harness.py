"""Experiment drivers for the paper's Table 3 and Figures 8–20.

Two kinds of drivers coexist:

* **Pattern-level drivers** (`algorithm1_read_time`, `collective_contiguous_read_time`,
  ...) feed the paper's file-access patterns straight into the I/O cost model
  without materialising terabyte files.  They are used for the pure-I/O
  bandwidth figures (8–11, 15 partially), where the access pattern — not the
  payload — determines the result.
* **Full-simulation drivers** (`run_join_breakdown`, `run_indexing_breakdown`,
  `sequential_parse_table`, ...) execute the real SPMD pipeline on scaled-down
  synthetic datasets and report simulated per-phase times (Figures 13, 14,
  16–20, Table 3).

Both paths share the same cost model and the same library code as the unit
tests, so the benchmarks measure the system, not a separate re-implementation.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import mpisim
from repro.core import (
    DistributedIndex,
    GridPartitionConfig,
    PartitionConfig,
    SpatialJoin,
    VectorIO,
    build_record_index,
    read_variable_records_roundrobin,
)
from repro.datasets import (
    DATASETS,
    SyntheticConfig,
    dataset_path,
    generate_dataset,
    random_envelopes,
    write_mbr_file,
)
from repro.io import File
from repro.io.twophase import collective_read_time
from repro.mpisim import CommCostModel, Op
from repro.pfs import (
    ClusterConfig,
    GPFSFilesystem,
    IOCostModel,
    LustreFilesystem,
    ReadRequest,
    StripeLayout,
)
from reporting import FigureReport, bandwidth_gbps

#: COMET-like Lustre defaults used by the pattern-level drivers
COMET_CLUSTER = ClusterConfig(procs_per_node=16, nic_bandwidth=7.0e9)
OST_COUNT = 96
#: one ring exchange of Algorithm 1: every rank sends and receives the
#: average trailing fragment (64 KiB)
RING_EXCHANGE_S = 2 * CommCostModel().transfer_time(64 * 1024)
#: the halo each rank over-reads in the overlapping strategy (Figure 10)
HALO_BYTES = 11 << 20
#: the partitioning block of the end-to-end drivers
PARTITION_BLOCK = 64 * 1024


# --------------------------------------------------------------------------- #
# pattern-level drivers (no data materialised)
# --------------------------------------------------------------------------- #
def _iteration_requests(
    file_size: int, nranks: int, block_size: int, iteration: int, extra_per_rank: int = 0
) -> List[ReadRequest]:
    """Requests issued by one iteration of the block-cyclic pattern."""
    chunk = block_size * nranks
    requests = []
    for rank in range(nranks):
        start = iteration * chunk + rank * block_size
        if start >= file_size:
            continue
        nbytes = min(block_size + extra_per_rank, file_size - start)
        requests.append(ReadRequest(rank=rank, ranges=((start, nbytes),)))
    return requests


def algorithm1_read_time(
    cost_model: IOCostModel,
    layout: StripeLayout,
    file_size: int,
    nranks: int,
    block_size: int,
) -> float:
    """Simulated time of Algorithm 1 with independent (Level 0) reads.

    Per iteration: every rank reads one block (contention-aware makespan),
    then the even/odd ring exchange moves the average trailing fragment to the
    neighbouring rank.
    """
    chunk = block_size * nranks
    iterations = max(1, math.ceil(file_size / chunk))
    total = cost_model.open_latency
    for it in range(iterations):
        requests = _iteration_requests(file_size, nranks, block_size, it)
        if not requests:
            continue
        total += cost_model.parallel_read_time(layout, requests)
        total += RING_EXCHANGE_S
    return total


def overlap_read_time(
    cost_model: IOCostModel,
    layout: StripeLayout,
    file_size: int,
    nranks: int,
    block_size: int,
) -> float:
    """Simulated time of the overlapping (halo) strategy with Level-0 reads."""
    chunk = block_size * nranks
    iterations = max(1, math.ceil(file_size / chunk))
    total = cost_model.open_latency
    for it in range(iterations):
        requests = _iteration_requests(file_size, nranks, block_size, it, extra_per_rank=HALO_BYTES)
        if not requests:
            continue
        total += cost_model.parallel_read_time(layout, requests)
    return total


def collective_contiguous_read_time(
    fs,
    path: str,
    file_size: int,
    nranks: int,
    block_size: int,
) -> float:
    """Simulated time of Algorithm 1 with collective (Level 1) reads —
    two-phase I/O with ROMIO aggregator selection."""
    chunk = block_size * nranks
    iterations = max(1, math.ceil(file_size / chunk))
    total = fs.cost_model.open_latency
    for it in range(iterations):
        requests = _iteration_requests(file_size, nranks, block_size, it)
        if not requests:
            continue
        elapsed, _ = collective_read_time(fs, path, requests)
        total += elapsed
        total += RING_EXCHANGE_S
    return total


def noncontiguous_read_time(
    fs,
    path: str,
    total_records: int,
    record_size: int,
    nranks: int,
    records_per_block: int,
) -> float:
    """Simulated time of a Level-3 (non-contiguous collective) read where each
    rank owns every ``nranks``-th block of records."""
    requests: List[ReadRequest] = []
    total_blocks = math.ceil(total_records / records_per_block)
    for rank in range(nranks):
        ranges = []
        for b in range(rank, total_blocks, nranks):
            start = b * records_per_block * record_size
            nrec = min(records_per_block, total_records - b * records_per_block)
            if nrec <= 0:
                continue
            ranges.append((start, nrec * record_size))
        if ranges:
            requests.append(ReadRequest(rank=rank, ranges=tuple(ranges)))
    elapsed, _ = collective_read_time(fs, path, requests)
    return fs.cost_model.open_latency + elapsed


# --------------------------------------------------------------------------- #
# figure drivers — Lustre I/O (Figures 8–11)
# --------------------------------------------------------------------------- #
def level0_bandwidth_figure(
    file_size: int,
    stripe_specs: Sequence[Tuple[int, int]],
    node_counts: Sequence[int],
    procs_per_node: int = 16,
    title: str = "Level 0 read bandwidth",
    figure: str = "Figure 8",
) -> FigureReport:
    """Bandwidth of independent contiguous reads (Figures 8 and 9).

    ``stripe_specs`` is a list of ``(stripe_size, stripe_count)`` pairs, one
    series per pair.  Block size per process equals the stripe size (the
    paper's stripe-aligned configuration).
    """
    report = FigureReport(figure, title, "nodes", "bandwidth (GB/s)")
    cluster = ClusterConfig(procs_per_node=procs_per_node, nic_bandwidth=7.0e9)
    cost = IOCostModel(ost_bandwidth=1.1e9, cluster=cluster)
    for stripe_size, stripe_count in stripe_specs:
        layout = StripeLayout(stripe_size, min(stripe_count, OST_COUNT))
        series = report.add_series(f"stripe={stripe_size >> 20}MB x {stripe_count}OST")
        for nodes in node_counts:
            nranks = nodes * procs_per_node
            elapsed = algorithm1_read_time(cost, layout, file_size, nranks, stripe_size)
            series.add(nodes, bandwidth_gbps(file_size, elapsed))
    return report


def message_vs_overlap_figure(
    file_size: int,
    stripe_size: int,
    stripe_counts: Sequence[int],
    node_counts: Sequence[int],
    block_size: int = 32 << 20,
) -> FigureReport:
    """Figure 10: message-based dynamic partitioning vs overlapping reads."""
    report = FigureReport("Figure 10", "Message vs overlap partitioning (Lakes)", "nodes", "time (s)")
    cost = IOCostModel(ost_bandwidth=1.1e9, cluster=COMET_CLUSTER)
    for stripe_count in stripe_counts:
        layout = StripeLayout(stripe_size, stripe_count)
        msg = report.add_series(f"message OST={stripe_count}")
        ovl = report.add_series(f"overlap OST={stripe_count}")
        for nodes in node_counts:
            nranks = nodes * COMET_CLUSTER.procs_per_node
            msg.add(nodes, algorithm1_read_time(cost, layout, file_size, nranks, block_size))
            ovl.add(nodes, overlap_read_time(cost, layout, file_size, nranks, block_size))
    return report


def collective_read_figure(
    tmp_root,
    file_size: int,
    stripe_size: int,
    stripe_counts: Sequence[int],
    node_counts: Sequence[int],
) -> FigureReport:
    """Figure 11: Level-1 collective read time of 16 MB blocks vs node count
    and stripe count, showing the ROMIO aggregator-selection dips."""
    report = FigureReport("Figure 11", "Level 1 collective read time (Roads)", "nodes", "time (s)")
    for stripe_count in stripe_counts:
        fs = LustreFilesystem(
            f"{tmp_root}/lustre_fig11_{stripe_count}",
            ost_count=OST_COUNT,
            cluster=COMET_CLUSTER,
        )
        fs.create_file("roads.virtual", b"")
        fs.setstripe("roads.virtual", stripe_size=stripe_size, stripe_count=stripe_count)
        series = report.add_series(f"OST={stripe_count}")
        for nodes in node_counts:
            nranks = nodes * COMET_CLUSTER.procs_per_node
            series.add(
                nodes, collective_contiguous_read_time(fs, "roads.virtual", file_size, nranks, 16 << 20)
            )
    return report


# --------------------------------------------------------------------------- #
# figure drivers — GPFS / datatypes / reductions (Figures 12–16)
# --------------------------------------------------------------------------- #
def struct_vs_contiguous_figure(
    fs: GPFSFilesystem,
    record_counts: Sequence[int],
) -> FigureReport:
    """Figure 12: reading binary MBR records on 4 ranks with
    ``MPI_Type_struct`` versus a user-assembled ``MPI_Type_contiguous``.

    The struct variant lets the MPI implementation hand the record to the
    application in one pass; the user-assembled contiguous variant performs an
    extra user-space packing pass over the payload, which is what costs it the
    difference the paper measures.
    """
    report = FigureReport("Figure 12", "Binary read: struct vs contiguous datatype", "records", "time (s)")
    struct_series = report.add_series("MPI_Type_struct")
    contig_series = report.add_series("MPI_Type_contiguous (user)")

    for count in record_counts:
        path = f"bench/mbrs_{count}.bin"
        if not fs.exists(path):
            write_mbr_file(fs, path, random_envelopes(count, seed=count), precision="float32")

        def prog(comm, user_packing):
            fh = File.Open(comm, fs, path)
            per_rank = count // comm.size
            nbytes = per_rank * 16
            data = fh.read_at_all(comm.rank * nbytes, nbytes)
            if user_packing:
                # the user-code path re-assembles each 4-float record itself
                with comm.clock.compute(category="parse"):
                    arr = np.frombuffer(data, dtype=np.float32).reshape(-1, 4)
                    rebuilt = [tuple(map(float, row)) for row in arr]
                    assert len(rebuilt) == len(arr)
            else:
                with comm.clock.compute(category="parse"):
                    arr = np.frombuffer(data, dtype=np.float32).reshape(-1, 4)
                    assert arr.shape[1] == 4
            fh.Close()
            return comm.clock.now

        struct_series.add(count, max(mpisim.run_spmd(prog, 4, False).values))
        contig_series.add(count, max(mpisim.run_spmd(prog, 4, True).values))
    return report


def union_reduce_scan_figure(
    rect_counts: Sequence[int],
    nprocs: int = 8,
) -> FigureReport:
    """Figure 13: MPI_Reduce and MPI_Scan with the geometric-union operator
    over 100K/200K/400K rectangles."""
    report = FigureReport("Figure 13", "Reduce and Scan with MPI_UNION", "rectangles", "time (s)")
    reduce_series = report.add_series("MPI_Reduce")
    scan_series = report.add_series("MPI_Scan")

    # element-wise union of (n, 4) arrays of rectangles
    def array_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.empty_like(a)
        out[:, 0] = np.minimum(a[:, 0], b[:, 0])
        out[:, 1] = np.minimum(a[:, 1], b[:, 1])
        out[:, 2] = np.maximum(a[:, 2], b[:, 2])
        out[:, 3] = np.maximum(a[:, 3], b[:, 3])
        return out

    union_op = Op.create(array_union, commute=True, name="MPI_UNION[array]")

    for count in rect_counts:
        def prog(comm, use_scan):
            rng = np.random.default_rng(comm.rank + 1)
            lows = rng.uniform(-180, 179, size=(count, 2))
            sizes = rng.uniform(0, 1, size=(count, 2))
            rects = np.hstack([lows, lows + sizes])
            if use_scan:
                comm.scan(rects, union_op)
            else:
                comm.reduce(rects, union_op, root=0)
            return comm.clock.now

        reduce_series.add(count, max(mpisim.run_spmd(prog, nprocs, False).values))
        scan_series.add(count, max(mpisim.run_spmd(prog, nprocs, True).values))
    return report


def ensure_dataset(fs, name: str, scale: float, seed: int = 7, path: Optional[str] = None) -> str:
    """Create a named dataset on *fs* if it is not there yet.

    Pass *path* to materialise the same logical dataset at a different scale
    under a different name (e.g. ``datasets/lakes_large.wkt``).
    """
    path = path or dataset_path(name)
    if not fs.exists(path):
        generate_dataset(
            fs, name, scale=scale, config=SyntheticConfig(seed=seed, clusters=6), path=path
        )
    return path


def gpfs_io_parsing_figure(
    fs: GPFSFilesystem,
    proc_counts: Sequence[int],
) -> FigureReport:
    """Figure 14: I/O + parsing time for All Nodes (points) vs All Objects
    (mixed polygons) on GPFS, Level 1, both layers at scale 0.5."""
    report = FigureReport("Figure 14", "I/O + parsing on GPFS (Level 1)", "processes", "time (s)")
    nodes_path = ensure_dataset(fs, "all_nodes", 0.5)
    objects_path = ensure_dataset(fs, "all_objects", 0.5)

    def prog(comm, path):
        VectorIO(fs, PartitionConfig(level=1)).read_geometries(comm, path)
        return comm.clock.now

    nodes_series = report.add_series("All Nodes (points)")
    objects_series = report.add_series("All Objects (polygons)")
    for nprocs in proc_counts:
        nodes_series.add(nprocs, max(mpisim.run_spmd(prog, nprocs, nodes_path).values))
        objects_series.add(nprocs, max(mpisim.run_spmd(prog, nprocs, objects_path).values))
    return report


def noncontig_binary_figure(
    fs: GPFSFilesystem,
    total_records: int,
    block_sizes: Sequence[int],
) -> FigureReport:
    """Figure 15: contiguous vs non-contiguous collective reads of a binary
    MBR file on 8 ranks, for several block sizes (in number of MBRs)."""
    report = FigureReport(
        "Figure 15", "Binary MBR file: contiguous vs non-contiguous access", "block size (MBRs)", "time (s)"
    )
    path = f"bench/mbrs_nc_{total_records}.bin"
    record_size = 16
    if not fs.exists(path):
        write_mbr_file(fs, path, random_envelopes(total_records, seed=5), precision="float32")
    file_size = total_records * record_size
    nprocs = 8

    contig = report.add_series("contiguous (Level 1)")
    noncontig = report.add_series("non-contiguous (Level 3)")

    # contiguous baseline: equal chunks per rank, independent of block size
    requests = [
        ReadRequest(rank=r, ranges=((r * file_size // nprocs, file_size // nprocs),))
        for r in range(nprocs)
    ]
    contig_time, _ = collective_read_time(fs, path, requests)
    for block in block_sizes:
        contig.add(block, fs.cost_model.open_latency + contig_time)
        noncontig.add(
            block,
            noncontiguous_read_time(fs, path, total_records, record_size, nprocs, block),
        )
    return report


def noncontig_polygon_figure(
    fs: GPFSFilesystem,
    block_sizes: Sequence[int],
) -> FigureReport:
    """Figure 16: non-contiguous access on 4 ranks for the variable-length
    polygon records of the scale-0.5 Lakes layer, with different block sizes
    (in number of polygons); the contiguous Level-1 read of the same file is
    the reference series."""
    report = FigureReport(
        "Figure 16", "WKT polygons: non-contiguous access vs block size", "block size (polygons)", "time (s)"
    )
    path = ensure_dataset(fs, "lakes", 0.5)
    index = build_record_index(fs, path)

    def contiguous_prog(comm):
        vio = VectorIO(fs, PartitionConfig(level=1))
        vio.read_records(comm, path)
        return comm.clock.now

    contig_time = max(mpisim.run_spmd(contiguous_prog, 4).values)
    contig = report.add_series("contiguous (Level 1)")
    noncontig = report.add_series("non-contiguous (Level 3)")

    for block in block_sizes:
        def prog(comm):
            read_variable_records_roundrobin(comm, fs, path, index, records_per_block=block)
            return comm.clock.now

        noncontig.add(block, max(mpisim.run_spmd(prog, 4).values))
        contig.add(block, contig_time)
    return report


# --------------------------------------------------------------------------- #
# end-to-end drivers (Figures 17–20, Table 3)
# --------------------------------------------------------------------------- #
def run_join_breakdown(
    fs,
    left_path: str,
    right_path: str,
    nprocs: int,
    num_cells: int,
) -> Dict[str, float]:
    """Run the distributed spatial join and return per-phase maxima."""

    def prog(comm):
        join = SpatialJoin(
            fs,
            partition_config=PartitionConfig(block_size=PARTITION_BLOCK),
            grid_config=GridPartitionConfig(num_cells=num_cells),
        )
        result = join.run(comm, left_path, right_path)
        return result.breakdown.as_dict()

    res = mpisim.run_spmd(prog, nprocs)
    keys = res.values[0].keys()
    return {k: max(v[k] for v in res.values) for k in keys}


def run_indexing_breakdown(
    fs,
    path: str,
    nprocs: int,
    num_cells: int,
) -> Dict[str, float]:
    """Run distributed indexing and return per-phase maxima."""

    def prog(comm):
        index = DistributedIndex(
            fs,
            partition_config=PartitionConfig(block_size=PARTITION_BLOCK),
            grid_config=GridPartitionConfig(num_cells=num_cells),
        )
        report = index.build(comm, path)
        return report.breakdown.as_dict()

    res = mpisim.run_spmd(prog, nprocs)
    keys = res.values[0].keys()
    return {k: max(v[k] for v in res.values) for k in keys}


def join_breakdown_figure(
    fs,
    left_path: str,
    right_path: str,
    x_values: Sequence[int],
    vary: str,
    fixed_procs: int = 8,
    fixed_cells: int = 64,
    figure: str = "Figure 18",
    title: str = "Spatial join breakdown",
) -> FigureReport:
    """Breakdown figure where *vary* is either ``"processes"`` or ``"cells"``."""
    report = FigureReport(figure, title, vary, "time (s)")
    phase_series = {
        phase: report.add_series(phase)
        for phase in ("io", "parse", "partition", "communication", "refine", "total")
    }
    for x in x_values:
        if vary == "processes":
            breakdown = run_join_breakdown(fs, left_path, right_path, x, fixed_cells)
        elif vary == "cells":
            breakdown = run_join_breakdown(fs, left_path, right_path, fixed_procs, x)
        else:
            raise ValueError("vary must be 'processes' or 'cells'")
        for phase, series in phase_series.items():
            series.add(x, breakdown[phase])
    return report


def sequential_parse_table(fs, scale: float = 1.0) -> FigureReport:
    """Table 3: sequential I/O + parsing time for every named dataset."""
    report = FigureReport("Table 3", "Sequential I/O + parsing", "dataset", "time (s)")
    series = report.add_series("sequential")
    counts = report.add_series("geometries")
    # what the time is made of: the cost-model I/O charge and the file size
    # are exact for a seed, the remainder is measured parse CPU
    io = report.add_series("io (s)")
    sizes = report.add_series("bytes")
    for name in DATASETS:
        path = ensure_dataset(fs, name, scale)

        def prog(comm):
            vio = VectorIO(fs)
            rep = vio.read_geometries(comm, path)
            return (comm.clock.now, rep.num_geometries, comm.clock.category("io"))

        elapsed, n, io_seconds = mpisim.run_spmd(prog, 1).values[0]
        series.add(name, elapsed)
        counts.add(name, float(n))
        io.add(name, io_seconds)
        sizes.add(name, float(fs.file_size(path)))
    return report
