"""Shard routing for distributed store serving.

The router is the query-side view of ``shards.json``: given a query window
it prunes the shard list via the per-shard data extents (the coarsest level
of the store's pruning hierarchy — shard extent, then partition MBR, then
page MBR / index leaf), assigns shards to serving ranks, and builds the
per-rank scatter plan for a query batch.

Every record is stored once, in the shard owning its home cell (the grid
cell of its MBR's lower-left corner, :func:`~repro.store.writer.home_cells`),
so the shards partition the dataset: store-backed pipeline input
(:meth:`repro.core.framework.SpatialComputation.run_from_store`) reads every
record exactly once across ranks without any communication.  (The paper's
§4 R-tree over cell boundaries is not built: see
:mod:`repro.core.grid_partition` for when it would be needed.)
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from ..geometry import Envelope
from .manifest import ShardInfo, ShardsManifest

__all__ = ["ShardRouter", "shard_assignment"]


def shard_assignment(num_shards: int, nranks: int) -> Dict[int, int]:
    """Contiguous balanced mapping of shards onto serving ranks.

    With ``nranks >= num_shards`` every shard gets its own rank (the extra
    ranks serve nothing but still participate in the collectives); otherwise
    each rank serves a contiguous run of shards, so neighbouring partitions
    stay on one rank.
    """
    if num_shards < 0 or nranks < 1:
        raise ValueError("need num_shards >= 0 and nranks >= 1")
    return {sid: sid * nranks // num_shards for sid in range(num_shards)}


class ShardRouter:
    """Routing decisions over one :class:`~repro.store.manifest.ShardsManifest`."""

    def __init__(self, manifest: ShardsManifest) -> None:
        self.manifest = manifest

    # ------------------------------------------------------------------ #
    # shard pruning
    # ------------------------------------------------------------------ #
    def shards_for(self, window: Envelope) -> List[ShardInfo]:
        """Shards whose data extent intersects *window* (empty-safe)."""
        return self.manifest.shards_for(window)

    def plan(
        self,
        queries: Sequence[Tuple[Any, ...]],
        assignment: Dict[int, int],
        nranks: int,
    ) -> List[List[Tuple[Any, ...]]]:
        """Per-rank scatter plan for a query batch.

        Each query is a tuple whose last element is its window (``(query_id,
        window)``, or the server's ``(query_id, probe, window)``).  Each
        entry of the returned ``nranks``-long list holds the ``(index,
        *query)`` tuples the rank must answer, *index* the query's batch
        position; a query touching several shards of one rank appears once
        in that rank's list (the rank probes all of its matching shards
        locally).
        """
        out: List[List[Tuple[Any, ...]]] = [[] for _ in range(nranks)]
        for idx, query in enumerate(queries):
            entry = (idx, *query)
            for rank in sorted({assignment[s.shard_id] for s in self.shards_for(query[-1])}):
                out[rank].append(entry)
        return out
