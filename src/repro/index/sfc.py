"""The Hilbert space-filling curve.

The paper notes that "to ensure spatial data locality, points and line
segments are often sorted in 2D using Z-order and Hilbert curve" (§4.1).
Hilbert order is the one this repo uses: it is a fact of the store format
(record order inside a partition) and the engine's batch visit order.

A key is computed four curve levels per step from a 1 024-entry table,
derived at import from the classic bit-at-a-time loop (which stays in the
test suite as the oracle).  A table row is the transform that loop has
applied to the bits still to come — a swap of the two coordinates, a
complement of both, or both (they commute) — so one lookup per nibble pair
yields eight key bits and the next row.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..geometry import Envelope

__all__ = [
    "hilbert_encode",
    "sort_by_hilbert",
    "spatial_visit_order",
]


def _levels_table() -> List[int]:
    """``row << 8 | x nibble << 4 | y nibble`` -> ``key byte << 10 | next row
    << 8``, where row bit 0 is a pending swap and bit 1 a pending complement."""
    table = []
    for i in range(1024):
        flip, row = 15 if i & 512 else 0, i >> 8
        x, y = (i >> 4 & 15) ^ flip, (i & 15) ^ flip
        x, y = (y, x) if row & 1 else (x, y)
        key = 0
        for s in (8, 4, 2, 1):  # the bit loop, four levels of it
            rx, ry = int(x & s > 0), int(y & s > 0)
            key += s * s * ((3 * rx) ^ ry)
            if not ry:  # rotate the quadrant: a swap, after a complement when rx
                x, y, row = (s - 1 - y, s - 1 - x, row ^ 3) if rx else (y, x, row ^ 1)
        table.append(key << 10 | row << 8)
    return table


_TABLE = _levels_table()


def hilbert_encode(ix: int, iy: int, order: int = 16) -> int:
    """Hilbert curve distance of an integer grid point at the given *order*
    (grid side = ``2**order``), one table lookup per four levels."""
    side = 1 << order
    if not (0 <= ix < side and 0 <= iy < side):
        raise ValueError(f"Hilbert coordinates must lie in [0, 2**order = {side})")
    top = -(-order // 4) * 4
    # each padding level above *order* sees a zero bit pair: no key bits, one swap
    d, row = 0, (top - order) % 2 << 8
    for shift in range(top - 4, -1, -4):
        entry = _TABLE[row | (ix >> shift & 15) << 4 | iy >> shift & 15]
        d, row = d << 8 | entry >> 10, entry & 768
    return d


def sort_by_hilbert(points: Sequence[Tuple[float, float]], extent: Envelope) -> List[int]:
    """Indices of *points* sorted by Hilbert distance on the ``2**16`` grid
    laid over *extent* (ties keep input order).

    Each coordinate is scaled onto the grid and clamped in float space
    before it becomes an integer: a point outside the extent, at ±inf or
    past an overflowing extent width lands on a boundary cell, and NaN on
    cell 0 — so any window or record has a place in the order (over an
    empty extent every point is on cell 0: input order).
    """
    order = 16
    side = float((1 << order) - 1)
    x0, y0 = extent.minx, extent.miny
    wx, wy = extent.width or 1.0, extent.height or 1.0
    keyed = []
    for i, (x, y) in enumerate(points):
        fx, fy = (x - x0) / wx * side, (y - y0) / wy * side
        fx = fx if 0.0 <= fx <= side else side if fx > side else 0.0  # NaN: 0
        fy = fy if 0.0 <= fy <= side else side if fy > side else 0.0
        keyed.append((hilbert_encode(int(fx), int(fy), order), i))
    return [i for _, i in sorted(keyed)]


def spatial_visit_order(
    points: Sequence[Tuple[float, float]], extent: Envelope
) -> List[int]:
    """Spatially local visit order of *points* — the one shared ordering rule.

    The bulk loader packing a partition's records and the query engine
    ordering a batch's windows both route through this helper, so the visit
    order can never silently diverge between the write path and the serving
    path.  The order is Hilbert order (:func:`sort_by_hilbert`: table keys,
    coordinates clamped in float space, so a NaN or infinite window centre
    has a place too).

    Degenerate inputs keep the input order: fewer than two points, or an empty
    extent (nothing to normalise against).
    """
    if len(points) < 2 or extent.is_empty:
        return list(range(len(points)))
    return sort_by_hilbert(points, extent)
