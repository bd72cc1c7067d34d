"""Geometry–geometry predicates (the refine-phase kernels).

The spatial join defined in the paper uses ``intersects`` as its join
predicate θ, and range queries refine by it too.  Dispatch is by geometry
type pairs; every function first performs the cheap envelope test (the
filter step) before running the exact kernel.

**Rectangle operands.**  :func:`intersects` accepts an
:class:`~repro.geometry.envelope.Envelope` as either operand, meaning the
*closed rectangle* it bounds — boundary included, a zero-width or zero-area
envelope being a segment or a point — and an empty envelope intersects
nothing.  The answer is the one ``intersects(Polygon.from_envelope(w), g)``
gives, without the polygon: a window query's refine step passes its window
straight through.

**The ``_EPS`` band.**  The envelope filter ahead of every kernel is exact.
Inside the kernels "touching" carries the slack of
:func:`algorithms.orientation`: a cross product within ``_EPS`` (1e-12) of
zero counts as collinear, and ranges are padded by ``_EPS`` on each side
(:func:`algorithms.on_segment`, the window's sides in the rectangle kernel,
the envelope intersection the general kernels clip to).  On coordinates
whose products are exact the band is empty and closed-set semantics are
exact: shared vertices, collinear overlaps and an edge lying on a window
side all intersect.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, List, Sequence, Tuple, Union

from . import algorithms
from .algorithms import _EPS
from .base import Geometry
from .envelope import Envelope
from .linestring import LineString
from .multi import GeometryCollection
from .point import Point
from .polygon import Polygon

__all__ = ["intersects", "envelope_intersects"]

Coord = Tuple[float, float]


def envelope_intersects(a: Geometry, b: Geometry) -> bool:
    """The filter-phase test: do the MBRs overlap?"""
    return a.envelope.intersects(b.envelope)


# --------------------------------------------------------------------------- #
# intersects
# --------------------------------------------------------------------------- #
def intersects(a: Union[Geometry, Envelope], b: Union[Geometry, Envelope]) -> bool:
    """True when the two geometries share at least one point.  Either
    operand may be an :class:`Envelope`, standing for its closed rectangle."""
    if isinstance(a, Envelope):
        return _window_intersects(a, b)
    if isinstance(b, Envelope):
        return _window_intersects(b, a)
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
        coords = other.coords
        return any(
            algorithms.point_on_segment(p.coord, s, e)
            for s, e in zip(coords, coords[1:])
        )
    if isinstance(other, Polygon):
        return other.contains_point(p.x, p.y)
    if isinstance(other, GeometryCollection):
        return any(_point_intersects(p, g) for g in other)
    raise TypeError(f"unsupported geometry type {other.geom_type}")


# -- rectangle window ------------------------------------------------------- #
def _window_intersects(w: Envelope, g: Union[Geometry, Envelope]) -> bool:
    """The closed rectangle *w* against any geometry (or another rectangle)."""
    if isinstance(g, Envelope):
        return w.intersects(g)
    if isinstance(g, Point):
        return w.contains_point(g.x, g.y)
    if not w.intersects(g.envelope):
        return False
    if isinstance(g, GeometryCollection):
        return any(intersects(w, member) for member in g)
    if isinstance(g, LineString):
        return _window_meets_path(w, g.vertices())
    if isinstance(g, Polygon):
        for ring in g.rings():
            if _window_meets_path(w, ring.vertices()):
                return True
        # No ring touches the window, so the window lies wholly in the
        # interior, in a hole or outside: one corner decides which.
        return g.contains_point(w.minx, w.miny)
    raise TypeError(f"unsupported geometry type {g.geom_type}")


def _window_meets_path(w: Envelope, coords: Iterable[Coord]) -> bool:
    """Does the polyline through *coords* touch the closed rectangle *w*?

    Cohen–Sutherland outcodes against the ``_EPS``-padded window: a vertex
    with outcode 0 is inside (accept), an edge whose ends share an outcode
    bit lies beyond one side (reject).  Any other edge has both ends outside
    and no side in common, so it meets the rectangle exactly when its line
    does — when the four corners are not strictly on one side of it.
    """
    wx0, wy0, wx1, wy1 = w.minx, w.miny, w.maxx, w.maxy
    x0, y0, x1, y1 = wx0 - _EPS, wy0 - _EPS, wx1 + _EPS, wy1 + _EPS
    px = py = 0.0
    pcode = 15  # shares a bit with every outside code: no edge ends at the first vertex
    for x, y in coords:
        code = (1 if x < x0 else 2 if x > x1 else 0) | (4 if y < y0 else 8 if y > y1 else 0)
        if not code:
            return True
        if not code & pcode:
            # corner cross products (orientation's formula) span [lo, hi]
            dx, dy = x - px, y - py
            a, b = dx * (wy0 - py), dx * (wy1 - py)
            c, d = dy * (wx0 - px), dy * (wx1 - px)
            lo = (a if a < b else b) - (c if c > d else d)
            hi = (a if a > b else b) - (c if c < d else d)
            if lo <= _EPS and hi >= -_EPS:
                return True
        px, py, pcode = x, y, code
    return False


# -- general pairs, clipped to the envelope intersection -------------------- #
# Two geometries can only meet inside the intersection of their envelopes,
# and every test the kernels below make is an OR over vertices or edge pairs:
# dropping the vertices and edges outside that box (padded by _EPS, the reach
# of the primitives' own slack) changes no answer.  Nothing is memoised — the
# box and the edge lists are derived from ``coords`` on every call.
def _clip_box(a: Geometry, b: Geometry) -> Envelope:
    return a.envelope.intersection(b.envelope).buffer(_EPS)


def _edges_in(box: Envelope, coords: Sequence[Coord]) -> List[Tuple[Coord, Coord]]:
    """Consecutive coordinate pairs whose bounding box overlaps *box*."""
    x0, y0, x1, y1 = box
    out = []
    p = coords[0]
    px, py = p
    for q in coords[1:]:
        qx, qy = q
        if not (
            (px < x0 and qx < x0)
            or (px > x1 and qx > x1)
            or (py < y0 and qy < y0)
            or (py > y1 and qy > y1)
        ):
            out.append((p, q))
        p, px, py = q, qx, qy
    return out


def _any_vertex_inside(box: Envelope, coords: Sequence[Coord], poly: Polygon) -> bool:
    x0, y0, x1, y1 = box
    for x, y in coords:
        if x0 <= x <= x1 and y0 <= y <= y1 and poly.contains_point(x, y):
            return True
    return False


def _any_edges_cross(
    edges_a: Sequence[Tuple[Coord, Coord]], edges_b: Sequence[Tuple[Coord, Coord]]
) -> bool:
    segments_intersect = algorithms.segments_intersect
    for (p1, p2), (q1, q2) in product(edges_a, edges_b):
        if segments_intersect(p1, p2, q1, q2):
            return True
    return False


def _ring_edges_in(box: Envelope, poly: Polygon) -> List[Tuple[Coord, Coord]]:
    return [edge for ring in poly.rings() for edge in _edges_in(box, ring.coords)]


def _linestring_linestring_intersects(a: LineString, b: LineString) -> bool:
    box = _clip_box(a, b)
    return _any_edges_cross(_edges_in(box, a.coords), _edges_in(box, b.coords))


def _polygon_linestring_intersects(poly: Polygon, line: LineString) -> bool:
    box = _clip_box(poly, line)
    # Any vertex of the line inside the polygon?
    if _any_vertex_inside(box, line.coords, poly):
        return True
    # Any line segment crossing any ring of the polygon?
    return _any_edges_cross(_edges_in(box, line.coords), _ring_edges_in(box, poly))


def _polygon_polygon_intersects(a: Polygon, b: Polygon) -> bool:
    box = _clip_box(a, b)
    # Case 1: a shell vertex of either polygon lies inside the other.
    if _any_vertex_inside(box, a.shell.coords, b):
        return True
    if _any_vertex_inside(box, b.shell.coords, a):
        return True
    # Case 2: boundary edges cross (covers partially overlapping shells).
    return _any_edges_cross(_ring_edges_in(box, a), _ring_edges_in(box, b))
