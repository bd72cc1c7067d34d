"""The Hilbert space-filling curve.

The paper notes that "to ensure spatial data locality, points and line
segments are often sorted in 2D using Z-order and Hilbert curve" (§4.1).
Hilbert order is the one this repo uses: it is a fact of the store format
(record order inside a partition) and the engine's batch visit order.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..geometry import Envelope

__all__ = [
    "hilbert_encode",
    "hilbert_decode",
    "normalise_to_grid",
    "sort_by_hilbert",
    "spatial_visit_order",
]


# --------------------------------------------------------------------------- #
# Hilbert curve
# --------------------------------------------------------------------------- #
def hilbert_encode(ix: int, iy: int, order: int = 16) -> int:
    """Hilbert curve distance of an integer grid point at the given *order*
    (grid side = ``2**order``)."""
    if ix < 0 or iy < 0:
        raise ValueError("Hilbert coordinates must be non-negative")
    side = 1 << order
    if ix >= side or iy >= side:
        raise ValueError(f"coordinates must be < 2**order = {side}")
    rx = ry = 0
    d = 0
    s = side >> 1
    x, y = ix, iy
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        # rotate quadrant
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s >>= 1
    return d


def hilbert_decode(d: int, order: int = 16) -> Tuple[int, int]:
    """Inverse of :func:`hilbert_encode`."""
    side = 1 << order
    if d < 0 or d >= side * side:
        raise ValueError("Hilbert distance out of range")
    rx = ry = 0
    x = y = 0
    t = d
    s = 1
    while s < side:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        x += s * rx
        y += s * ry
        t //= 4
        s <<= 1
    return (x, y)


# --------------------------------------------------------------------------- #
# helpers for real-coordinate data
# --------------------------------------------------------------------------- #
def normalise_to_grid(
    x: float, y: float, extent: Envelope, order: int = 16
) -> Tuple[int, int]:
    """Map a point in *extent* onto the ``2**order`` integer grid."""
    if extent.is_empty:
        raise ValueError("extent must not be empty")
    side = (1 << order) - 1
    wx = extent.width or 1.0
    wy = extent.height or 1.0
    ix = int((x - extent.minx) / wx * side)
    iy = int((y - extent.miny) / wy * side)
    return (max(0, min(side, ix)), max(0, min(side, iy)))


def sort_by_hilbert(
    points: Sequence[Tuple[float, float]], extent: Envelope, order: int = 16
) -> List[int]:
    """Indices of *points* sorted by Hilbert distance."""
    keyed = [
        (hilbert_encode(*normalise_to_grid(x, y, extent, order), order=order), i)
        for i, (x, y) in enumerate(points)
    ]
    keyed.sort()
    return [i for _, i in keyed]


def spatial_visit_order(
    points: Sequence[Tuple[float, float]], extent: Envelope
) -> List[int]:
    """Spatially local visit order of *points* — the one shared ordering rule.

    Every layer that walks a collection in space-filling-curve order (the bulk
    loader packing a partition's records, the query engine ordering a batch's
    windows, the sharded writer ordering each shard's partitions) routes
    through this helper, so the visit order can never silently diverge between
    the write path and the serving path.  The order is Hilbert order.

    Degenerate inputs keep the input order: fewer than two points, or an empty
    extent (nothing to normalise against).
    """
    if len(points) < 2 or extent.is_empty:
        return list(range(len(points)))
    return sort_by_hilbert(points, extent)
