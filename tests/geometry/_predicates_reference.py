"""The pre-envelope-aware predicate kernels, kept verbatim as a test oracle.

This is ``repro.geometry.predicates`` as it stood before the rectangle-window
kernel and the envelope-clipped edge tests replaced its hot loops
(``envelope_intersects`` ... ``_boundary_segments``, byte for byte): vertex-in-
polygon over both shells, then an all-edges x all-rings crossing loop.  It
exists only so ``test_predicates.py`` can assert that the new kernels decide
exactly what these do; nothing under ``src/`` may import it.  A rectangle
window reaches it as ``Polygon.from_envelope(window)``.
"""

from __future__ import annotations

from itertools import product

from repro.geometry import algorithms
from repro.geometry.base import Geometry
from repro.geometry.linestring import LineString
from repro.geometry.multi import GeometryCollection
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon

__all__ = ["intersects", "envelope_intersects"]


def envelope_intersects(a: Geometry, b: Geometry) -> bool:
    """The filter-phase test: do the MBRs overlap?"""
    return a.envelope.intersects(b.envelope)


# --------------------------------------------------------------------------- #
# intersects
# --------------------------------------------------------------------------- #
def intersects(a: Geometry, b: Geometry) -> bool:
    """True when the two geometries share at least one point."""
    if not envelope_intersects(a, b):
        return False
    if isinstance(a, GeometryCollection):
        return any(intersects(g, b) for g in a)
    if isinstance(b, GeometryCollection):
        return any(intersects(a, g) for g in b)

    if isinstance(a, Point):
        return _point_intersects(a, b)
    if isinstance(b, Point):
        return _point_intersects(b, a)
    if isinstance(a, Polygon) and isinstance(b, Polygon):
        return _polygon_polygon_intersects(a, b)
    if isinstance(a, Polygon) and isinstance(b, LineString):
        return _polygon_linestring_intersects(a, b)
    if isinstance(a, LineString) and isinstance(b, Polygon):
        return _polygon_linestring_intersects(b, a)
    if isinstance(a, LineString) and isinstance(b, LineString):
        return _linestring_linestring_intersects(a, b)
    raise TypeError(f"unsupported geometry pair: {a.geom_type} / {b.geom_type}")


def _point_intersects(p: Point, other: Geometry) -> bool:
    if isinstance(other, Point):
        return p.x == other.x and p.y == other.y
    if isinstance(other, LineString):
        return any(
            algorithms.point_on_segment(p.coord, s, e) for s, e in other.segments()
        )
    if isinstance(other, Polygon):
        return other.contains_point(p.x, p.y)
    if isinstance(other, GeometryCollection):
        return any(_point_intersects(p, g) for g in other)
    raise TypeError(f"unsupported geometry type {other.geom_type}")


def _linestring_linestring_intersects(a: LineString, b: LineString) -> bool:
    for (p1, p2), (q1, q2) in product(a.segments(), b.segments()):
        if algorithms.segments_intersect(p1, p2, q1, q2):
            return True
    return False


def _polygon_linestring_intersects(poly: Polygon, line: LineString) -> bool:
    # Any vertex of the line inside the polygon?
    for x, y in line.coords:
        if poly.contains_point(x, y):
            return True
    # Any line segment crossing any ring of the polygon?
    for s, e in line.segments():
        for ring in poly.rings():
            if algorithms.segments_cross_ring(s, e, ring.coords):
                return True
    return False


def _polygon_polygon_intersects(a: Polygon, b: Polygon) -> bool:
    # Case 1: a shell vertex of either polygon lies inside the other.
    for x, y in a.shell.coords:
        if b.contains_point(x, y):
            return True
    for x, y in b.shell.coords:
        if a.contains_point(x, y):
            return True
    # Case 2: boundary edges cross (covers partially overlapping shells).
    for ring_a in a.rings():
        coords_a = ring_a.coords
        for i in range(len(coords_a) - 1):
            seg_s, seg_e = coords_a[i], coords_a[i + 1]
            for ring_b in b.rings():
                if algorithms.segments_cross_ring(seg_s, seg_e, ring_b.coords):
                    return True
    return False
