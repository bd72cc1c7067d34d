"""Lustre-like filesystem model (COMET's scratch filesystem in the paper).

COMET's Lustre deployment exposes 96 OSTs behind a 100 GB/s aggregate
backbone; users control ``stripe_count`` and ``stripe_size`` per file or
directory.  The defaults below follow those numbers so that the benchmark
harness reproduces the paper's bandwidth *shape* (peaking in the tens of GB/s
once enough OSTs and client nodes participate).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from .costmodel import ClusterConfig, IOCostModel
from .filesystem import SimulatedFilesystem
from .striping import StripeLayout

__all__ = ["LustreFilesystem"]


class LustreFilesystem(SimulatedFilesystem):
    """Striped filesystem with user-controllable stripe count/size."""

    name = "lustre"

    #: COMET allows at most 96 OSTs for a single file
    MAX_OSTS = 96

    def __init__(
        self,
        root: Union[str, Path],
        ost_count: int = 96,
        cluster: Optional[ClusterConfig] = None,
    ) -> None:
        if ost_count < 1 or ost_count > self.MAX_OSTS:
            raise ValueError(f"ost_count must be in 1..{self.MAX_OSTS}")
        self.ost_count = ost_count
        cost_model = IOCostModel(
            ost_bandwidth=1.1e9,
            ost_latency=4.0e-4,
            cluster=cluster or ClusterConfig(procs_per_node=16, nic_bandwidth=7.0e9),
        )
        super().__init__(root, cost_model=cost_model)

    # ------------------------------------------------------------------ #
    def setstripe(self, path: str, stripe_size: int, stripe_count: int) -> StripeLayout:
        """``lfs setstripe`` equivalent; clamps the stripe count to the number
        of OSTs actually present."""
        stripe_count = max(1, min(stripe_count, self.ost_count))
        layout = StripeLayout(stripe_size=stripe_size, stripe_count=stripe_count)
        self.set_layout(path, layout)
        return layout
