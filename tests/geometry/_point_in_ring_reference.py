"""The retired ``point_in_ring``, kept verbatim as a test oracle.

This is ``repro.geometry.algorithms.point_in_ring`` as it was before the
fused loop replaced it, together with the ``orientation`` / ``on_segment`` /
``point_on_segment`` it calls, byte for byte.  It exists only so
``test_point_in_ring.py`` can assert that the fused loop answers exactly what
these four functions do; nothing under ``src/`` may import it.
"""

from __future__ import annotations

from typing import Sequence, Tuple

Coord = Tuple[float, float]

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
