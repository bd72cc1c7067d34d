"""Shard routing for distributed store serving.

The router is the query-side view of ``shards.json``: given a query window
it prunes the shard list via the per-shard data extents (the coarsest level
of the store's pruning hierarchy — shard extent, then partition MBR, then
page MBR / index leaf), assigns shards to serving ranks, and builds the
per-rank scatter plan for a query batch.

It also answers *partition ownership*: every logical record's home
partition is the lowest-numbered global grid cell its MBR overlaps — the
cell of the MBR's lower-left corner under the grid's floor function
(:mod:`repro.index.grid`), the same function the bulk loader, the appenders
and compaction replicate with, so the home cell always holds a replica and a
record replicated into several shards is owned by exactly one of them.
That rule is what lets store-backed pipeline input
(:meth:`repro.core.framework.SpatialComputation.run_from_store`) read every
record exactly once across ranks without any communication.  (The paper's
§4 R-tree over cell boundaries is not built: see
:mod:`repro.core.grid_partition` for when it would be needed.)
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..geometry import Envelope
from ..index import UniformGrid
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
        self._grid: Optional[UniformGrid] = None

    # ------------------------------------------------------------------ #
    # shard pruning
    # ------------------------------------------------------------------ #
    def shards_for(self, window: Envelope) -> List[ShardInfo]:
        """Shards whose data extent intersects *window* (empty-safe)."""
        return self.manifest.shards_for(window)

    def plan(
        self,
        queries: Sequence[Tuple[Any, Envelope]],
        assignment: Dict[int, int],
        nranks: int,
    ) -> List[List[Tuple[int, Any, Envelope]]]:
        """Per-rank scatter plan for a query batch.

        Each entry of the returned ``nranks``-long list holds the
        ``(index, query_id, window)`` triples the rank must answer; a query
        touching several shards of one rank appears once in that rank's
        list (the rank probes all of its matching shards locally).
        """
        out: List[List[Tuple[int, Any, Envelope]]] = [[] for _ in range(nranks)]
        for idx, (qid, window) in enumerate(queries):
            targets = {assignment[s.shard_id] for s in self.shards_for(window)}
            for rank in sorted(targets):
                out[rank].append((idx, qid, window))
        return out

    # ------------------------------------------------------------------ #
    # partition ownership (replica de-dup for store-backed pipeline input)
    # ------------------------------------------------------------------ #
    @property
    def grid(self) -> UniformGrid:
        """The global partition grid reconstructed from the manifest."""
        if self._grid is None:
            self._grid = UniformGrid(
                self.manifest.extent, self.manifest.grid_rows, self.manifest.grid_cols
            )
        return self._grid

    def home_partition(self, env: Envelope) -> int:
        """The partition that *owns* a record: the lowest overlapping cell,
        which is the cell of the MBR's lower-left corner.

        Replicas of one record agree on this without communication, so the
        shard holding the home partition is the record's unique owner.
        """
        if env.is_empty:
            raise ValueError("cannot compute home partition of an empty envelope")
        return self.grid.cell_for_point(env.minx, env.miny)
