"""Low-level computational-geometry primitives.

These are the routines a GEOS build would provide in C++: orientation tests,
segment intersection, point-in-ring tests and ring signed area.  Everything above (the :mod:`repro.geometry.predicates` dispatch and
the geometry classes) is built from these functions, which keeps the numeric
hot spots in one vectorisable place.
"""

from __future__ import annotations

from typing import Sequence, Tuple

Coord = Tuple[float, float]

__all__ = [
    "orientation",
    "on_segment",
    "segments_intersect",
    "point_on_segment",
    "point_in_ring",
    "point_on_ring",
    "ring_signed_area",
    "segments_cross_ring",
]

_EPS = 1e-12


def orientation(p: Coord, q: Coord, r: Coord) -> int:
    """Orientation of the ordered triple (p, q, r).

    Returns ``1`` for counter-clockwise, ``-1`` for clockwise and ``0`` for
    collinear points.  Uses the usual cross-product sign test with a small
    tolerance so nearly collinear points behave deterministically.
    """
    val = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    if val > _EPS:
        return 1
    if val < -_EPS:
        return -1
    return 0


def on_segment(p: Coord, q: Coord, r: Coord) -> bool:
    """Given collinear points, is *q* on the closed segment ``p-r``?"""
    return (
        min(p[0], r[0]) - _EPS <= q[0] <= max(p[0], r[0]) + _EPS
        and min(p[1], r[1]) - _EPS <= q[1] <= max(p[1], r[1]) + _EPS
    )


def segments_intersect(p1: Coord, p2: Coord, q1: Coord, q2: Coord) -> bool:
    """True when closed segments ``p1-p2`` and ``q1-q2`` share at least a point."""
    o1 = orientation(p1, p2, q1)
    o2 = orientation(p1, p2, q2)
    o3 = orientation(q1, q2, p1)
    o4 = orientation(q1, q2, p2)

    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_segment(p1, q1, p2):
        return True
    if o2 == 0 and on_segment(p1, q2, p2):
        return True
    if o3 == 0 and on_segment(q1, p1, q2):
        return True
    if o4 == 0 and on_segment(q1, p2, q2):
        return True
    return False


def point_on_segment(pt: Coord, a: Coord, b: Coord) -> bool:
    """Is *pt* on the closed segment ``a-b``?"""
    return orientation(a, b, pt) == 0 and on_segment(a, pt, b)


def point_in_ring(pt: Coord, ring: Sequence[Coord]) -> bool:
    """Ray-casting point-in-polygon test for a closed ring.

    Points exactly on the boundary are treated as *inside* (matching the
    closed-set semantics of the ``intersects`` predicate used by the refine
    phase).  The ring may or may not repeat its first coordinate at the end.

    One fused loop: the edge's previous vertex rides in locals and
    :func:`point_on_segment` is inlined — :func:`orientation`'s cross product
    in its operand order (NaN counts as collinear), then :func:`on_segment`'s
    padded range with ``min`` / ``max`` spelled as the comparisons the
    builtins make, so every answer is the one the three calls give.
    """
    n = len(ring)
    if n < 3:
        return False
    # Normalise: ignore an explicit closing coordinate.
    if ring[0] == ring[-1]:
        n -= 1
    x, y = pt
    inside = False
    xj, yj = ring[n - 1]
    for xi, yi in ring[:n]:
        val = (xj - xi) * (y - yi) - (yj - yi) * (x - xi)
        if not (val > _EPS or val < -_EPS):  # collinear, NaN included
            if (xj if xj < xi else xi) - _EPS <= x <= (xj if xj > xi else xi) + _EPS:
                if (yj if yj < yi else yi) - _EPS <= y <= (yj if yj > yi else yi) + _EPS:
                    return True
        if (yi > y) != (yj > y) and x < (xj - xi) * (y - yi) / (yj - yi) + xi:
            inside = not inside
        xj, yj = xi, yi
    return inside


def point_on_ring(pt: Coord, ring: Sequence[Coord]) -> bool:
    """True when *pt* lies exactly on the ring boundary."""
    n = len(ring)
    if n < 2:
        return False
    if ring[0] == ring[-1]:
        n -= 1
    for i in range(n):
        a = ring[i]
        b = ring[(i + 1) % n]
        if point_on_segment(pt, a, b):
            return True
    return False


def ring_signed_area(ring: Sequence[Coord]) -> float:
    """Signed area via the shoelace formula (positive for CCW rings)."""
    n = len(ring)
    if n < 3:
        return 0.0
    if ring[0] == ring[-1]:
        n -= 1
    total = 0.0
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total / 2.0


def segments_cross_ring(a: Coord, b: Coord, ring: Sequence[Coord]) -> bool:
    """Does segment ``a-b`` intersect any edge of *ring*?"""
    n = len(ring)
    if n < 2:
        return False
    if ring[0] == ring[-1]:
        n -= 1
    for i in range(n):
        p = ring[i]
        q = ring[(i + 1) % n]
        if segments_intersect(a, b, p, q):
            return True
    return False

