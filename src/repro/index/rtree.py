"""The R-tree spatial index.

:class:`STRtree` is a Sort-Tile-Recursive bulk-loaded, query-only tree,
mirroring how GEOS is used in the paper: it is what the local filter phase of
the spatial join builds per grid cell and what the distributed-indexing
experiment (Figure 20) measures.

An ``STRtree`` node stores its entries once, as flat rows ``(minx, miny, maxx,
maxy, entry)`` — *entry* is the payload in a leaf and the child node above
one — so a query is one interpreted loop over floats with
:meth:`Envelope.intersects`' comparison inlined (same operands, same order:
NaN and ±inf bounds answer as they do there) and no object is built per
entry.  **Result order is part of the contract**: a depth-first walk taking a
node's last intersecting child first, each leaf's rows in packed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generic, Iterable, List, Optional, Tuple, TypeVar

from ..geometry import Envelope

T = TypeVar("T")
#: one node entry: an MBR's four bounds, then the payload or the child node
_Row = Tuple[float, float, float, float, Any]

__all__ = ["STRtree", "RTreeStats"]


# --------------------------------------------------------------------------- #
# STR bulk-loaded tree
# --------------------------------------------------------------------------- #
class _STRNode:
    """A packed node: its MBR, its kind, and its entry rows (module docstring)."""

    __slots__ = ("envelope", "leaf", "entries")

    def __init__(self, envelope: Envelope, leaf: bool, entries: List[_Row]) -> None:
        self.envelope = envelope
        self.leaf = leaf
        self.entries = entries


def _centre_x(row: _Row) -> float:
    return (row[0] + row[2]) / 2.0


def _centre_y(row: _Row) -> float:
    return (row[1] + row[3]) / 2.0


@dataclass
class RTreeStats:
    """Summary statistics, handy for tests and the indexing benchmark."""

    num_items: int = 0
    num_nodes: int = 0
    height: int = 0


class STRtree(Generic[T]):
    """Sort-Tile-Recursive packed R-tree.

    Items are ``(envelope, payload)`` pairs supplied at construction time; the
    tree is immutable afterwards.  Query cost is O(log n + k).
    """

    def __init__(
        self,
        items: Iterable[Tuple[Envelope, T]],
        node_capacity: int = 16,
    ) -> None:
        if node_capacity < 2:
            raise ValueError("node_capacity must be >= 2")
        self.node_capacity = node_capacity
        rows = [
            (env.minx, env.miny, env.maxx, env.maxy, payload)
            for env, payload in items
            if not env.is_empty
        ]
        self._size = len(rows)
        self._root = self._build(rows)

    @classmethod
    def from_packed(
        cls,
        root: Optional[_STRNode],
        size: int,
        node_capacity: int = 16,
    ) -> "STRtree[T]":
        """Adopt an already-built node graph without re-running the STR pack.

        This is the deserialisation path of :mod:`repro.store.index_io`: a
        persisted index is decoded back into ``_STRNode`` objects and stitched
        into a queryable tree, skipping the O(n log n) bulk load.
        """
        if node_capacity < 2:
            raise ValueError("node_capacity must be >= 2")
        if size < 0:
            raise ValueError("size must be >= 0")
        if (root is None) != (size == 0):
            raise ValueError("empty tree must have no root (and vice versa)")
        tree: "STRtree[T]" = cls.__new__(cls)
        tree.node_capacity = node_capacity
        tree._size = size
        tree._root = root
        return tree

    # -- construction ---------------------------------------------------- #
    def _build(self, rows: List[_Row]) -> Optional[_STRNode]:
        if not rows:
            return None
        rows = self._pack(rows, leaf=True)
        while len(rows) > 1:
            rows = self._pack(rows, leaf=False)
        return rows[0][4]

    def _pack(self, rows: List[_Row], leaf: bool) -> List[_Row]:
        """One STR level: sort by x of centre, tile into vertical slices,
        sort each slice by y, pack ``node_capacity`` rows to a node.  Returns
        the rows of the level above — one per node built, carrying it."""
        cap = self.node_capacity
        count = len(rows)
        num_nodes = math.ceil(count / cap)
        num_slices = max(1, math.ceil(math.sqrt(num_nodes)))
        slice_size = math.ceil(count / num_slices)

        by_x = sorted(rows, key=_centre_x)
        parents: List[_Row] = []
        for s in range(0, count, slice_size):
            strip = sorted(by_x[s : s + slice_size], key=_centre_y)
            for i in range(0, len(strip), cap):
                chunk = strip[i : i + cap]
                # the union of non-empty envelopes, folded a column at a time
                minxs, minys, maxxs, maxys, _ = zip(*chunk)
                bounds = (min(minxs), min(minys), max(maxxs), max(maxys))
                parents.append((*bounds, _STRNode(Envelope(*bounds), leaf, chunk)))
        return parents

    # -- queries ---------------------------------------------------------- #
    def __len__(self) -> int:
        return self._size

    @property
    def is_empty(self) -> bool:
        return self._size == 0

    @property
    def bounds(self) -> Envelope:
        return self._root.envelope if self._root else Envelope.empty()

    def query(self, search: Envelope) -> List[T]:
        """All payloads whose envelope intersects *search*."""
        results: List[T] = []
        root = self._root
        if root is None or not root.envelope.intersects(search):
            return results
        sx0, sy0, sx1, sy1 = search.minx, search.miny, search.maxx, search.maxy
        found = results.append
        stack = [root]
        pop, push = stack.pop, stack.append
        while stack:
            node = pop()
            emit = found if node.leaf else push
            for x0, y0, x1, y1, entry in node.entries:
                if not (sx0 > x1 or sx1 < x0 or sy0 > y1 or sy1 < y0):
                    emit(entry)
        return results

    def stats(self) -> RTreeStats:
        stats = RTreeStats(num_items=self._size)
        level = [self._root] if self._root is not None else []
        while level:  # a level at a time: no recursion, whatever the depth
            stats.height += 1
            stats.num_nodes += len(level)
            level = [row[4] for node in level if not node.leaf for row in node.entries]
        return stats
