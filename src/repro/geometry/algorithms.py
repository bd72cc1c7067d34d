"""Low-level computational-geometry primitives.

These are the routines a GEOS build would provide in C++: orientation tests,
segment intersection, point-in-ring tests, ring area/centroid and distance
kernels.  Everything above (the :mod:`repro.geometry.predicates` dispatch and
the geometry classes) is built from these functions, which keeps the numeric
hot spots in one vectorisable place.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

Coord = Tuple[float, float]

__all__ = [
    "orientation",
    "on_segment",
    "segments_intersect",
    "segment_intersection_point",
    "point_on_segment",
    "point_in_ring",
    "point_on_ring",
    "ring_area",
    "ring_signed_area",
    "ring_centroid",
    "ring_is_ccw",
    "ring_length",
    "segments_cross_ring",
    "point_segment_distance",
    "segment_segment_distance",
    "convex_hull",
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


def segment_intersection_point(
    p1: Coord, p2: Coord, q1: Coord, q2: Coord
) -> Optional[Coord]:
    """Intersection point of two segments, or ``None``.

    For collinear overlapping segments an arbitrary shared point is returned
    (one of the overlapping endpoints), which is sufficient for the
    reference-point duplicate-avoidance rule used by the spatial join.
    """
    r = (p2[0] - p1[0], p2[1] - p1[1])
    s = (q2[0] - q1[0], q2[1] - q1[1])
    denom = r[0] * s[1] - r[1] * s[0]
    qp = (q1[0] - p1[0], q1[1] - p1[1])
    if abs(denom) < _EPS:
        # Parallel.  Check for collinear overlap.
        if abs(qp[0] * r[1] - qp[1] * r[0]) > _EPS:
            return None
        if not segments_intersect(p1, p2, q1, q2):
            return None
        for cand in (q1, q2, p1, p2):
            if on_segment(p1, cand, p2) and on_segment(q1, cand, q2):
                return cand
        return None
    t = (qp[0] * s[1] - qp[1] * s[0]) / denom
    u = (qp[0] * r[1] - qp[1] * r[0]) / denom
    if -_EPS <= t <= 1.0 + _EPS and -_EPS <= u <= 1.0 + _EPS:
        return (p1[0] + t * r[0], p1[1] + t * r[1])
    return None


def point_on_segment(pt: Coord, a: Coord, b: Coord) -> bool:
    """Is *pt* on the closed segment ``a-b``?"""
    return orientation(a, b, pt) == 0 and on_segment(a, pt, b)


def point_in_ring(pt: Coord, ring: Sequence[Coord]) -> bool:
    """Ray-casting point-in-polygon test for a closed ring.

    Points exactly on the boundary are treated as *inside* (matching the
    closed-set semantics of the ``intersects`` predicate used by the refine
    phase).  The ring may or may not repeat its first coordinate at the end.
    """
    n = len(ring)
    if n < 3:
        return False
    # Normalise: ignore an explicit closing coordinate.
    if ring[0] == ring[-1]:
        n -= 1
    x, y = pt
    inside = False
    j = n - 1
    for i in range(n):
        xi, yi = ring[i]
        xj, yj = ring[j]
        if point_on_segment(pt, (xi, yi), (xj, yj)):
            return True
        if (yi > y) != (yj > y):
            x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
            if x < x_cross:
                inside = not inside
        j = i
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


def ring_area(ring: Sequence[Coord]) -> float:
    """Absolute ring area."""
    return abs(ring_signed_area(ring))


def ring_is_ccw(ring: Sequence[Coord]) -> bool:
    """True when the ring winds counter-clockwise."""
    return ring_signed_area(ring) > 0.0


def ring_centroid(ring: Sequence[Coord]) -> Coord:
    """Area-weighted centroid of a ring (falls back to vertex mean for
    degenerate zero-area rings)."""
    n = len(ring)
    if n == 0:
        raise ValueError("empty ring has no centroid")
    if ring[0] == ring[-1] and n > 1:
        n -= 1
    a = ring_signed_area(ring)
    if abs(a) < _EPS:
        xs = sum(p[0] for p in ring[:n]) / n
        ys = sum(p[1] for p in ring[:n]) / n
        return (xs, ys)
    cx = cy = 0.0
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        cross = x1 * y2 - x2 * y1
        cx += (x1 + x2) * cross
        cy += (y1 + y2) * cross
    return (cx / (6.0 * a), cy / (6.0 * a))


def ring_length(ring: Sequence[Coord]) -> float:
    """Perimeter of the ring (closing edge included)."""
    n = len(ring)
    if n < 2:
        return 0.0
    closed = ring[0] == ring[-1]
    total = 0.0
    for i in range(n - 1):
        total += math.hypot(ring[i + 1][0] - ring[i][0], ring[i + 1][1] - ring[i][1])
    if not closed and n > 2:
        total += math.hypot(ring[0][0] - ring[-1][0], ring[0][1] - ring[-1][1])
    return total


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


def point_segment_distance(pt: Coord, a: Coord, b: Coord) -> float:
    """Euclidean distance from *pt* to the closed segment ``a-b``."""
    px, py = pt
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    seg_len2 = dx * dx + dy * dy
    if seg_len2 < _EPS:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / seg_len2
    t = max(0.0, min(1.0, t))
    cx, cy = ax + t * dx, ay + t * dy
    return math.hypot(px - cx, py - cy)


def segment_segment_distance(p1: Coord, p2: Coord, q1: Coord, q2: Coord) -> float:
    """Minimum distance between two closed segments."""
    if segments_intersect(p1, p2, q1, q2):
        return 0.0
    return min(
        point_segment_distance(p1, q1, q2),
        point_segment_distance(p2, q1, q2),
        point_segment_distance(q1, p1, p2),
        point_segment_distance(q2, p1, p2),
    )


def convex_hull(points: Sequence[Coord]) -> List[Coord]:
    """Andrew's monotone-chain convex hull.

    Returns hull vertices in counter-clockwise order without repeating the
    first vertex.  Degenerate inputs (fewer than 3 distinct points) return the
    distinct points themselves.
    """
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return list(pts)

    def cross(o: Coord, a: Coord, b: Coord) -> float:
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: List[Coord] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[Coord] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def coords_bounds(coords: Sequence[Coord]) -> Tuple[float, float, float, float]:
    """Vectorised bounds of a coordinate sequence (minx, miny, maxx, maxy)."""
    if len(coords) == 0:
        raise ValueError("empty coordinate sequence")
    arr = np.asarray(coords, dtype=np.float64)
    mins = arr.min(axis=0)
    maxs = arr.max(axis=0)
    return (float(mins[0]), float(mins[1]), float(maxs[0]), float(maxs[1]))
