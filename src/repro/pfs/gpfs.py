"""GPFS-like filesystem model (the ROGER cluster in the paper).

GPFS distributes file blocks across all NSD servers without user-visible
striping control ("we did not have the permission to change those parameters;
therefore we used the default filesystem configuration" — §5.1).  The model
therefore fixes the layout: a moderate block size striped across every storage
server, with an aggregate bandwidth noticeably below COMET's Lustre (the paper
reports a few GB/s on ROGER versus up to 22 GB/s on COMET).
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from .costmodel import ClusterConfig, IOCostModel
from .filesystem import SimulatedFilesystem
from .striping import StripeLayout

__all__ = ["GPFSFilesystem"]


class GPFSFilesystem(SimulatedFilesystem):
    """Block-distributed filesystem with fixed (non-user-tunable) layout."""

    name = "gpfs"

    #: NSD servers every file's 8 MiB blocks are spread over
    num_servers = 16

    def __init__(self, root: Union[str, Path]) -> None:
        cost_model = IOCostModel(
            ost_bandwidth=0.5e9,
            ost_latency=6.0e-4,
            # ROGER: 20 cores/node, 10 Gb/s uplink per node (§5 cluster info)
            cluster=ClusterConfig(procs_per_node=20, nic_bandwidth=1.25e9),
        )
        super().__init__(
            root,
            cost_model=cost_model,
            default_layout=StripeLayout(stripe_size=8 << 20, stripe_count=self.num_servers),
        )

    def set_layout(self, path: str, layout: StripeLayout) -> None:  # type: ignore[override]
        """GPFS users cannot change the data distribution; requests to do so
        are ignored (matching the paper's constraint), keeping the default
        block-cyclic layout."""
        # Intentionally a no-op.
        return None
