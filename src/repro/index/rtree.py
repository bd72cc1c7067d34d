"""R-tree spatial indexes.

Two variants are provided, mirroring how GEOS is used in the paper:

* :class:`STRtree` — a Sort-Tile-Recursive bulk-loaded, query-only tree.  This
  is what the local filter phase of the spatial join builds per grid cell and
  what the distributed-indexing experiment (Figure 20) measures.
* :class:`RTree` — an insertion-based tree (quadratic split) used where
  geometries arrive incrementally, e.g. indexing the grid-cell boundaries that
  incoming geometries are matched against during spatial partitioning.

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
from typing import Any, Generic, Iterable, List, Optional, Sequence, Tuple, TypeVar

from ..geometry import Envelope

T = TypeVar("T")
#: one node entry: an MBR's four bounds, then the payload or the child node
_Row = Tuple[float, float, float, float, Any]

__all__ = ["STRtree", "RTree", "RTreeStats"]


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

    def query_pairs(self, items: Sequence[Tuple[Envelope, Any]]) -> List[Tuple[Any, T]]:
        """Join-style query: for every (env, payload) in *items*, find tree
        entries whose envelope intersects and return (item payload, tree
        payload) candidate pairs — the filter-phase output of a spatial join.
        """
        pairs: List[Tuple[Any, T]] = []
        for env, payload in items:
            for match in self.query(env):
                pairs.append((payload, match))
        return pairs

    def stats(self) -> RTreeStats:
        stats = RTreeStats(num_items=self._size)
        level = [self._root] if self._root is not None else []
        while level:  # a level at a time: no recursion, whatever the depth
            stats.height += 1
            stats.num_nodes += len(level)
            level = [row[4] for node in level if not node.leaf for row in node.entries]
        return stats


# --------------------------------------------------------------------------- #
# dynamic (insert-based) tree with quadratic split
# --------------------------------------------------------------------------- #
class _DynNode:
    __slots__ = ("envelope", "children", "entries", "parent", "_leaf")

    def __init__(self, leaf: bool) -> None:
        self.envelope = Envelope.empty()
        self.children: List["_DynNode"] = []
        self.entries: List[Tuple[Envelope, Any]] = []
        self.parent: Optional["_DynNode"] = None
        self._leaf = leaf

    @property
    def is_leaf(self) -> bool:
        return self._leaf


class RTree(Generic[T]):
    """Guttman R-tree with quadratic node split.

    Supports incremental :meth:`insert` followed by :meth:`query`; used for
    the cell-boundary index built during spatial partitioning (each local
    geometry's MBR is probed against it to find overlapping grid cells).
    """

    def __init__(self, max_entries: int = 8, min_entries: Optional[int] = None) -> None:
        if max_entries < 4:
            raise ValueError("max_entries must be >= 4")
        self.max_entries = max_entries
        self.min_entries = min_entries if min_entries is not None else max(2, max_entries // 2)
        if self.min_entries > max_entries // 2:
            self.min_entries = max_entries // 2
        self._root = _DynNode(leaf=True)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def bounds(self) -> Envelope:
        return self._root.envelope

    # -- insertion --------------------------------------------------------- #
    def insert(self, envelope: Envelope, payload: T) -> None:
        """Insert one item; empty envelopes are rejected."""
        if envelope.is_empty:
            raise ValueError("cannot index an empty envelope")
        leaf = self._choose_leaf(self._root, envelope)
        leaf.entries.append((envelope, payload))
        leaf.envelope = leaf.envelope.union(envelope)
        self._size += 1
        if len(leaf.entries) > self.max_entries:
            self._split(leaf)
        else:
            self._adjust_upwards(leaf)

    def extend(self, items: Iterable[Tuple[Envelope, T]]) -> None:
        for env, payload in items:
            self.insert(env, payload)

    def _choose_leaf(self, node: _DynNode, env: Envelope) -> _DynNode:
        while not node.is_leaf:
            best = None
            best_enl = math.inf
            best_area = math.inf
            for child in node.children:
                enl = child.envelope.enlargement(env)
                area = child.envelope.area
                if enl < best_enl or (enl == best_enl and area < best_area):
                    best, best_enl, best_area = child, enl, area
            if best is None:
                # every child produced a NaN enlargement (infinite
                # envelopes): any subtree is as good as any other
                best = node.children[0]
            node = best
        return node

    def _entries_of(self, node: _DynNode) -> List[Tuple[Envelope, Any]]:
        if node.is_leaf:
            return list(node.entries)
        return [(c.envelope, c) for c in node.children]

    def _split(self, node: _DynNode) -> None:
        entries = self._entries_of(node)
        group_a, group_b = self._quadratic_split(entries)

        def fill(target: _DynNode, group: List[Tuple[Envelope, Any]]) -> None:
            target.envelope = Envelope.empty()
            if target.is_leaf:
                target.entries = []
                for env, payload in group:
                    target.entries.append((env, payload))
                    target.envelope = target.envelope.union(env)
            else:
                target.children = []
                for env, child in group:
                    child.parent = target
                    target.children.append(child)
                    target.envelope = target.envelope.union(env)

        if node is self._root:
            new_root = _DynNode(leaf=False)
            left = _DynNode(leaf=node.is_leaf)
            right = _DynNode(leaf=node.is_leaf)
            fill(left, group_a)
            fill(right, group_b)
            left.parent = right.parent = new_root
            new_root.children = [left, right]
            new_root.envelope = left.envelope.union(right.envelope)
            self._root = new_root
            return

        parent = node.parent
        assert parent is not None
        sibling = _DynNode(leaf=node.is_leaf)
        fill(node, group_a)
        fill(sibling, group_b)
        sibling.parent = parent
        parent.children.append(sibling)
        parent.envelope = parent.envelope.union(sibling.envelope)
        if len(parent.children) > self.max_entries:
            self._split(parent)
        else:
            self._adjust_upwards(parent)

    def _quadratic_split(
        self, entries: List[Tuple[Envelope, Any]]
    ) -> Tuple[List[Tuple[Envelope, Any]], List[Tuple[Envelope, Any]]]:
        # Pick the pair of seeds wasting the most area if grouped together.
        # Seeds start distinct so degenerate inputs (all-identical or
        # infinite envelopes, where every waste is 0 or NaN) can never
        # select the same entry twice and silently duplicate it.
        worst = -math.inf
        seed_a, seed_b = 0, 1
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                waste = (
                    entries[i][0].union(entries[j][0]).area
                    - entries[i][0].area
                    - entries[j][0].area
                )
                if waste > worst:
                    worst, seed_a, seed_b = waste, i, j
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        env_a, env_b = entries[seed_a][0], entries[seed_b][0]
        remaining = [e for k, e in enumerate(entries) if k not in (seed_a, seed_b)]

        while remaining:
            # Force-assign when one group must absorb the rest to reach minimum.
            if len(group_a) + len(remaining) <= self.min_entries:
                group_a.extend(remaining)
                break
            if len(group_b) + len(remaining) <= self.min_entries:
                group_b.extend(remaining)
                break
            # Pick the entry with maximum preference difference.
            best_idx = 0
            best_diff = -math.inf
            for idx, (env, _) in enumerate(remaining):
                d_a = env_a.enlargement(env)
                d_b = env_b.enlargement(env)
                diff = abs(d_a - d_b)
                if diff > best_diff:
                    best_diff, best_idx = diff, idx
            env, payload = remaining.pop(best_idx)
            if env_a.enlargement(env) <= env_b.enlargement(env):
                group_a.append((env, payload))
                env_a = env_a.union(env)
            else:
                group_b.append((env, payload))
                env_b = env_b.union(env)
        return group_a, group_b

    def _adjust_upwards(self, node: _DynNode) -> None:
        current: Optional[_DynNode] = node
        while current is not None:
            env = Envelope.empty()
            if current.is_leaf:
                for e, _ in current.entries:
                    env = env.union(e)
            else:
                for child in current.children:
                    env = env.union(child.envelope)
            current.envelope = env
            current = current.parent

    # -- queries ----------------------------------------------------------- #
    def query(self, search: Envelope) -> List[T]:
        """All payloads whose envelope intersects *search*."""
        results: List[T] = []
        if search.is_empty or self._size == 0:
            return results
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not node.envelope.intersects(search):
                continue
            if node.is_leaf:
                for env, payload in node.entries:
                    if env.intersects(search):
                        results.append(payload)
            else:
                stack.extend(node.children)
        return results

    def query_point(self, x: float, y: float) -> List[T]:
        return self.query(Envelope.of_point(x, y))

    def stats(self) -> RTreeStats:
        stats = RTreeStats(num_items=self._size)

        def walk(node: _DynNode, depth: int) -> None:
            stats.num_nodes += 1
            stats.height = max(stats.height, depth)
            for child in node.children:
                walk(child, depth + 1)

        walk(self._root, 1)
        return stats
