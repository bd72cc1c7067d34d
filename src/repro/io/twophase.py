"""Two-phase (collective-buffering) I/O model.

ROMIO implements collective reads in two phases: a subset of processes (the
*aggregators*) read large contiguous regions on behalf of everyone, then the
data is redistributed with ``MPI_Alltoallv``.  §5.1.1 of the paper explains
the two performance consequences this reproduction models:

* the aggregator count on Lustre is a function of the node count and the
  stripe count (good performance only when the node count divides or is a
  multiple of the stripe count — Figure 11), and
* when the per-aggregator share exceeds ``cb_buffer_size`` the exchange is
  split into multiple cycles, which is why collective reads lose to
  independent reads for large contiguous blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..pfs import ReadRequest, SimulatedFilesystem, romio_lustre_readers
from ..pfs.costmodel import NIC_LATENCY
from ..pfs.lustre import LustreFilesystem
from .hints import DEFAULT_CB_BUFFER_SIZE, Info

__all__ = ["CollectivePlan", "plan_collective_read", "collective_read_time"]


@dataclass
class CollectivePlan:
    """Everything the cost model needs to know about one collective read."""

    num_ranks: int
    num_nodes: int
    num_aggregators: int
    total_bytes: int
    total_blocks: int
    covering_extent: int
    cycles: int


def plan_collective_read(
    fs: SimulatedFilesystem,
    path: str,
    requests: Sequence[ReadRequest],
    info: Optional[Info] = None,
) -> CollectivePlan:
    """Derive the aggregator set and cycle count for a collective read."""
    info = info or Info()
    num_ranks = len(requests)
    cluster = fs.cost_model.cluster
    num_nodes = cluster.num_nodes(num_ranks)

    total_bytes = sum(r.nbytes for r in requests)
    total_blocks = sum(r.num_requests for r in requests)
    offsets = [off for r in requests for off, _ in r.ranges]
    ends = [off + n for r in requests for off, n in r.ranges]
    covering_extent = (max(ends) - min(offsets)) if offsets else 0

    layout = fs.layout_of(path)
    if "cb_nodes" in info:
        aggregators = max(1, min(info.get_int("cb_nodes", num_nodes), num_ranks))
    elif isinstance(fs, LustreFilesystem):
        aggregators = romio_lustre_readers(num_nodes, layout.stripe_count)
    else:
        # GPFS: ROMIO defaults to one aggregator per node.
        aggregators = num_nodes
    aggregators = max(1, min(aggregators, num_ranks))

    cb_buffer = info.get_int("cb_buffer_size", DEFAULT_CB_BUFFER_SIZE)
    per_aggregator = math.ceil(covering_extent / aggregators) if aggregators else 0
    cycles = max(1, math.ceil(per_aggregator / cb_buffer)) if per_aggregator else 1

    return CollectivePlan(
        num_ranks=num_ranks,
        num_nodes=num_nodes,
        num_aggregators=aggregators,
        total_bytes=total_bytes,
        total_blocks=total_blocks,
        covering_extent=covering_extent,
        cycles=cycles,
    )


def collective_read_time(
    fs: SimulatedFilesystem,
    path: str,
    requests: Sequence[ReadRequest],
    info: Optional[Info] = None,
) -> Tuple[float, CollectivePlan]:
    """Simulated makespan of a two-phase collective read.

    Phase 1: aggregators read contiguous slices of the covering extent.
    Phase 2: the payload is redistributed to its final owners.
    Per-cycle synchronisation and per-block processing overhead are what make
    the collective path lose to the independent path for contiguous access,
    while still being the only viable path for heavily non-contiguous views.
    """
    plan = plan_collective_read(fs, path, requests, info)
    if plan.total_bytes == 0:
        return (0.0, plan)

    cost = fs.cost_model
    layout = fs.layout_of(path)

    # Phase 1: each aggregator reads covering_extent / aggregators contiguous
    # bytes.  Build synthetic aggregator requests spread across the nodes.
    slice_bytes = math.ceil(plan.covering_extent / plan.num_aggregators)
    base_offset = min(off for r in requests for off, _ in r.ranges)
    ppn = cost.cluster.procs_per_node
    agg_requests = []
    for a in range(plan.num_aggregators):
        # one aggregator per node first, then wrap around
        agg_rank = (a % plan.num_nodes) * ppn + (a // plan.num_nodes)
        start = base_offset + a * slice_bytes
        length = min(slice_bytes, base_offset + plan.covering_extent - start)
        if length <= 0:
            continue
        agg_requests.append(ReadRequest(rank=agg_rank, ranges=((start, length),)))
    phase1 = cost.parallel_read_time(layout, agg_requests)

    # Per-block processing (offset/length bookkeeping, data sieving) performed
    # by the aggregators.
    block_overhead = plan.total_blocks * cost.request_overhead / max(1, plan.num_aggregators)

    # Phase 2: redistribution of the useful payload to all ranks (bounded by
    # the aggregator nodes' egress links).
    phase2 = cost.redistribution_time(plan.total_bytes, plan.num_ranks, plan.num_aggregators)

    # Cycle synchronisation overhead: each extra cycle costs a round of
    # collective hand-shakes among the aggregators.
    cycle_overhead = (plan.cycles - 1) * (
        NIC_LATENCY * plan.num_aggregators + 2.0e-4
    )

    return (phase1 + block_overhead + phase2 + cycle_overhead, plan)
