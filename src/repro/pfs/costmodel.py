"""I/O cost model for the simulated parallel filesystems.

The model is deliberately simple — linear latency/bandwidth terms per OST and
per client NIC, combined with a max() over the contended resources — because
that is enough to reproduce every qualitative effect the paper reports:

* aggregate bandwidth grows with stripe count until client links saturate
  (Figures 8 and 9),
* independent reads beat two-phase collective reads for contiguous access
  (§5.1.1, Figures 8–11),
* collective read time depends on the ROMIO aggregator count, which dips when
  the node count is neither a divisor nor a multiple of the stripe count
  (Figure 11),
* non-contiguous access pays per-request latency proportional to the number
  of file-view blocks, so it improves with larger block sizes (Figures 15–16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from .striping import OSTLoad, StripeLayout

__all__ = ["ClusterConfig", "IOCostModel", "ReadRequest", "romio_lustre_readers"]

#: fixed latency of a node NIC transfer (seconds)
NIC_LATENCY = 2.0e-6
#: metadata / open cost charged once per file open (seconds)
OPEN_LATENCY = 2.0e-3


@dataclass(frozen=True)
class ReadRequest:
    """One rank's contribution to a (possibly collective) I/O operation."""

    rank: int
    ranges: Tuple[Tuple[int, int], ...]  # (offset, nbytes) pairs

    @property
    def nbytes(self) -> int:
        return sum(n for _, n in self.ranges)

    @property
    def num_requests(self) -> int:
        return len(self.ranges)


@dataclass
class ClusterConfig:
    """Compute-side parameters (node mapping and NIC speed).

    COMET defaults: 16 MPI processes per node, FDR InfiniBand (~7 GB/s per
    node towards the filesystem, :data:`NIC_LATENCY` per transfer).
    """

    procs_per_node: int = 16
    nic_bandwidth: float = 7.0e9

    def node_of_rank(self, rank: int) -> int:
        return rank // self.procs_per_node

    def num_nodes(self, nranks: int) -> int:
        return max(1, math.ceil(nranks / self.procs_per_node))


@dataclass
class IOCostModel:
    """Storage-side parameters shared by the Lustre and GPFS models."""

    #: sustained bandwidth of a single OST / storage server (bytes/s)
    ost_bandwidth: float = 1.0e9
    #: fixed per-RPC service latency at an OST (seconds)
    ost_latency: float = 4.0e-4
    #: client-side software overhead per I/O request (seconds)
    request_overhead: float = 5.0e-5
    #: cluster (client side) description
    cluster: ClusterConfig = field(default_factory=ClusterConfig)

    # ------------------------------------------------------------------ #
    def parallel_read_time(
        self,
        layout: StripeLayout,
        requests: Sequence[ReadRequest],
    ) -> float:
        """Makespan of a set of concurrent read requests (every request's rank
        is a reader).

        The makespan is the maximum of three contended resources:

        * each OST's service time (sum of bytes/requests it receives),
        * each node NIC's transfer time (sum of bytes its ranks receive),
        * each reader's own software overhead.
        """
        if not requests:
            return 0.0

        ost_loads: Dict[int, OSTLoad] = {}
        node_bytes: Dict[int, int] = {}
        client_requests: Dict[int, int] = {}
        for req in requests:
            node = self.cluster.node_of_rank(req.rank)
            node_bytes[node] = node_bytes.get(node, 0) + req.nbytes
            client_requests[req.rank] = client_requests.get(req.rank, 0) + req.num_requests
            for ost, load in layout.ost_loads(list(req.ranges)).items():
                agg = ost_loads.setdefault(ost, OSTLoad())
                agg.nbytes += load.nbytes
                agg.requests += load.requests

        ost_time = max(
            (l.requests * self.ost_latency + l.nbytes / self.ost_bandwidth for l in ost_loads.values()),
            default=0.0,
        )
        nic_time = max(
            (NIC_LATENCY + b / self.cluster.nic_bandwidth for b in node_bytes.values()),
            default=0.0,
        )
        sw_time = max(
            (n * self.request_overhead for n in client_requests.values()),
            default=0.0,
        )
        return max(ost_time, nic_time) + sw_time

    # ------------------------------------------------------------------ #
    def redistribution_time(
        self, total_bytes: int, nranks: int, num_aggregators: Optional[int] = None
    ) -> float:
        """Network cost of the second phase of two-phase I/O (aggregators
        scatter the data they read to the other ranks with ``Alltoallv``).

        The aggregator nodes' *egress* links are the bottleneck whenever fewer
        nodes host aggregators than receive data — this is what keeps 24 nodes
        from beating 16 nodes on 64 OSTs in Figure 11 (both configurations are
        limited by the same 16 aggregator readers).
        """
        if nranks <= 1 or total_bytes <= 0:
            return 0.0
        nodes = self.cluster.num_nodes(nranks)
        sender_nodes = min(num_aggregators, nodes) if num_aggregators else nodes
        ingress = total_bytes / max(1, nodes) / self.cluster.nic_bandwidth
        egress = total_bytes / max(1, sender_nodes) / self.cluster.nic_bandwidth
        return NIC_LATENCY * nranks + max(ingress, egress)


def romio_lustre_readers(num_nodes: int, stripe_count: int) -> int:
    """Number of aggregator (reader) processes ROMIO selects on Lustre.

    Reproduces the rule discussed in §5.1.1 of the paper:

    * at most one reader per node,
    * when the stripe count is a multiple of the node count every node gets a
      reader,
    * when it is not, ROMIO falls back to the largest divisor of the stripe
      count that does not exceed the node count (e.g. 16 readers for 24 nodes
      on 64 OSTs, 32 readers for 48 nodes on 64 OSTs).
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if stripe_count < 1:
        raise ValueError("stripe_count must be >= 1")
    if stripe_count % num_nodes == 0:
        return num_nodes
    best = 1
    for d in range(1, stripe_count + 1):
        if stripe_count % d == 0 and d <= num_nodes:
            best = max(best, d)
    return best
