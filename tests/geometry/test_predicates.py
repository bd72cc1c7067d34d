"""Predicate (refine-phase kernel) tests."""

import math

import _predicates_reference as reference  # the retired kernels, kept next to this file
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    Envelope,
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    predicates,
    wkt,
)
from repro.geometry.algorithms import (
    point_in_ring,
    point_on_ring,
    ring_signed_area,
    segments_cross_ring,
    segments_intersect,
)


class TestSegmentAlgorithms:
    def test_crossing_segments(self):
        assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))

    def test_parallel_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))

    def test_collinear_overlapping(self):
        assert segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))

    def test_collinear_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))

    def test_touching_at_endpoint(self):
        assert segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))


class TestRingAlgorithms:
    SQUARE = [(0, 0), (4, 0), (4, 4), (0, 4), (0, 0)]

    def test_point_inside(self):
        assert point_in_ring((2, 2), self.SQUARE)

    def test_point_outside(self):
        assert not point_in_ring((5, 2), self.SQUARE)

    def test_point_on_boundary(self):
        assert point_in_ring((0, 2), self.SQUARE)
        assert point_in_ring((4, 4), self.SQUARE)

    def test_signed_area_is_positive_counter_clockwise(self):
        assert ring_signed_area(self.SQUARE) == 16.0
        assert ring_signed_area(list(reversed(self.SQUARE))) == -16.0


class TestIntersects:
    def test_point_in_polygon(self):
        poly = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        assert poly.intersects(Point(5, 5))
        assert not poly.intersects(Point(15, 5))

    def test_point_in_polygon_hole(self):
        poly = Polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)], holes=[[(3, 3), (7, 3), (7, 7), (3, 7)]]
        )
        assert not poly.intersects(Point(5, 5))
        assert poly.intersects(Point(1, 1))
        assert poly.intersects(Point(3, 5))  # on the hole boundary

    def test_polygon_polygon_overlap(self):
        a = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        b = Polygon([(2, 2), (6, 2), (6, 6), (2, 6)])
        assert a.intersects(b)
        assert b.intersects(a)

    def test_polygon_polygon_disjoint(self):
        a = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        b = Polygon([(10, 10), (12, 10), (12, 12), (10, 12)])
        assert not a.intersects(b)

    def test_polygon_containing_polygon(self):
        outer = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        inner = Polygon([(2, 2), (3, 2), (3, 3), (2, 3)])
        assert outer.intersects(inner)

    def test_polygon_crossing_edges_no_vertex_inside(self):
        # Plus-sign configuration: rectangles cross but neither holds a vertex
        # of the other.
        a = Polygon([(-5, -1), (5, -1), (5, 1), (-5, 1)])
        b = Polygon([(-1, -5), (1, -5), (1, 5), (-1, 5)])
        assert a.intersects(b)

    def test_linestring_polygon(self):
        poly = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        crossing = LineString([(-5, 5), (15, 5)])
        outside = LineString([(-5, -5), (-1, -1)])
        assert poly.intersects(crossing)
        assert crossing.intersects(poly)
        assert not poly.intersects(outside)

    def test_linestring_linestring(self):
        a = LineString([(0, 0), (10, 10)])
        b = LineString([(0, 10), (10, 0)])
        c = LineString([(20, 20), (30, 30)])
        assert a.intersects(b)
        assert not a.intersects(c)

    def test_multipolygon_member_dispatch(self):
        mp = wkt.loads("MULTIPOLYGON (((0 0, 2 0, 2 2, 0 2, 0 0)), ((10 10, 12 10, 12 12, 10 12, 10 10)))")
        assert mp.intersects(Point(1, 1))
        assert mp.intersects(Point(11, 11))
        assert not mp.intersects(Point(5, 5))

    def test_rivers_cities_example(self):
        """The paper's motivating join example: rivers (lines) × cities (polygons)."""
        river = wkt.loads("LINESTRING (0 0, 5 5, 10 5, 20 15)")
        city_a = wkt.loads("POLYGON ((4 4, 8 4, 8 8, 4 8, 4 4))")
        city_b = wkt.loads("POLYGON ((30 30, 32 30, 32 32, 30 32, 30 30))")
        assert river.intersects(city_a)
        assert not river.intersects(city_b)


class TestFilterRefineConsistency:
    """The envelope filter must never reject a truly intersecting pair."""

    boxes = st.tuples(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=0.1, max_value=50, allow_nan=False),
        st.floats(min_value=0.1, max_value=50, allow_nan=False),
    )

    @staticmethod
    def _make_box(spec):
        x, y, w, h = spec
        return Polygon([(x, y), (x + w, y), (x + w, y + h), (x, y + h)])

    @given(boxes, boxes)
    def test_exact_intersection_implies_envelope_intersection(self, s1, s2):
        a, b = self._make_box(s1), self._make_box(s2)
        if predicates.intersects(a, b):
            assert predicates.envelope_intersects(a, b)

    @given(boxes, boxes)
    def test_axis_aligned_boxes_envelope_equals_exact(self, s1, s2):
        # For axis-aligned rectangles the two tests must agree exactly.
        a, b = self._make_box(s1), self._make_box(s2)
        assert predicates.intersects(a, b) == predicates.envelope_intersects(a, b)

    @given(boxes, boxes)
    def test_intersects_is_symmetric(self, s1, s2):
        a, b = self._make_box(s1), self._make_box(s2)
        assert predicates.intersects(a, b) == predicates.intersects(b, a)


# --------------------------------------------------------------------------- #
# the envelope-aware kernels against the retired ones
# --------------------------------------------------------------------------- #
# Shapes live on an 8x8 grid that is scaled and placed on a 1/8 lattice, so
# every coordinate is a multiple of 1/8 and every cross product is exact:
# touching edges, shared vertices, collinear overlaps and a window side lying
# on a polygon edge are frequent *and* decided without rounding.  Each entry
# is (shell, holes strictly inside it, pairwise disjoint).
_TEMPLATES = [
    # box
    ([(0, 0), (8, 0), (8, 8), (0, 8)],
     [[(1, 1), (3, 1), (3, 3), (1, 3)], [(5, 5), (7, 6), (6, 7)], [(4, 1), (7, 2), (6, 4)]]),
    # L (concave)
    ([(0, 0), (8, 0), (8, 4), (4, 4), (4, 8), (0, 8)],
     [[(1, 1), (3, 1), (3, 3), (1, 3)], [(5, 1), (7, 1), (7, 3), (5, 3)], [(1, 5), (3, 5), (3, 7), (1, 7)]]),
    # diamond (no axis-parallel edge)
    ([(4, 0), (8, 4), (4, 8), (0, 4)],
     [[(3, 3), (5, 3), (5, 5), (3, 5)], [(4, 1), (5, 2), (3, 2)]]),
    # U (concave, a notch a window can sit in)
    ([(0, 0), (8, 0), (8, 8), (5, 8), (5, 3), (3, 3), (3, 8), (0, 8)],
     [[(1, 1), (2, 1), (2, 2), (1, 2)], [(6, 4), (7, 4), (7, 7), (6, 7)], [(1, 4), (2, 5), (1, 6)]]),
    # two diagonal notches
    ([(0, 0), (8, 0), (4, 3), (8, 8), (0, 8), (3, 4)],
     [[(3, 6), (5, 6), (4, 7)], [(2, 1), (4, 1), (3, 2)]]),
]

_lattice = st.integers(-24, 24).map(lambda k: k / 8)


def _all_coords(geom):
    if isinstance(geom, Point):
        return [geom.coord]
    if isinstance(geom, Polygon):
        return [c for ring in geom.rings() for c in ring.coords]
    if isinstance(geom, LineString):
        return list(geom.coords)
    return [c for member in geom for c in _all_coords(member)]


@st.composite
def lattice_polygons(draw):
    shell, holes = draw(st.sampled_from(_TEMPLATES))
    x, y = draw(_lattice), draw(_lattice)
    w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    mirror_x, mirror_y, transpose = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))

    def place(ring):
        out = []
        for gx, gy in ring:
            gx = 8 - gx if mirror_x else gx
            gy = 8 - gy if mirror_y else gy
            if transpose:
                gx, gy = gy, gx
            out.append((x + gx * w / 8, y + gy * h / 8))
        return out

    kept = draw(st.lists(st.sampled_from(range(len(holes))), unique=True, max_size=len(holes)))
    return Polygon(place(shell), [place(holes[i]) for i in kept])


@st.composite
def uniform_polygons(draw):
    """Star-shaped shells (concave: the radii vary) with up to two holes
    inside the inscribed disc, at full-mantissa coordinates."""
    rng = draw(st.randoms(use_true_random=True))

    def star(cx, cy, n, rmin, rmax):
        return [
            (cx + r * math.cos(2 * math.pi * i / n), cy + r * math.sin(2 * math.pi * i / n))
            for i, r in enumerate(rng.uniform(rmin, rmax) for _ in range(n))
        ]

    cx, cy = rng.uniform(-3, 3), rng.uniform(-3, 3)
    n = rng.randint(3, 9)
    rmin = rng.uniform(0.3, 1.0)
    inscribed = rmin * math.cos(math.pi / n)
    holes = [
        star(cx + side * inscribed / 2, cy, rng.randint(3, 6), inscribed / 8, inscribed / 2.5)
        for side in rng.sample((-1, 1), rng.randint(0, 2))
    ]
    return Polygon(star(cx, cy, n, rmin, 2.0), holes)


def _geometries(coord, polys):
    pts = st.builds(Point, coord, coord)
    lines = st.builds(LineString, st.lists(st.tuples(coord, coord), min_size=2, max_size=5))
    multis = st.one_of(
        st.builds(MultiPoint, st.lists(pts, max_size=3)),
        st.builds(MultiLineString, st.lists(lines, max_size=3)),
        st.builds(MultiPolygon, st.lists(polys, max_size=2)),
    )
    flat = st.one_of(pts, lines, polys, multis)
    nested = st.builds(GeometryCollection, st.lists(flat, max_size=3))
    collections = st.builds(GeometryCollection, st.lists(st.one_of(flat, nested), max_size=3))
    return st.one_of(pts, lines, polys, polys, multis, collections)


_uniform = st.randoms(use_true_random=True).map(lambda rng: rng.uniform(-4.0, 4.0))
lattice_geometries = _geometries(_lattice, lattice_polygons())
uniform_geometries = _geometries(_uniform, uniform_polygons())


@st.composite
def windows_near(draw, geom, coord):
    """A rectangle (possibly zero-width, zero-area or empty) whose sides are
    drawn from the operand's own vertex coordinates as often as from the
    plane, so aligned and touching windows are the common case."""
    coords = _all_coords(geom)
    xs = st.one_of(coord, st.sampled_from(sorted({c[0] for c in coords}))) if coords else coord
    ys = st.one_of(coord, st.sampled_from(sorted({c[1] for c in coords}))) if coords else coord
    x0, x1, y0, y1 = draw(xs), draw(xs), draw(ys), draw(ys)
    if draw(st.integers(0, 19)):  # 1 in 20 stays unsorted: an empty envelope
        x0, x1, y0, y1 = min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1)
    return Envelope(x0, y0, x1, y1)


def _reference_window(window, geom):
    if window.is_empty:
        return False
    return reference.intersects(Polygon.from_envelope(window), geom)


class TestAgainstRetiredKernels:
    """``tests/geometry/_predicates_reference.py`` is the module as it stood
    before the rectangle kernel and the envelope clipping; the new kernels
    must decide every pair the way it does."""

    def test_templates_are_valid_polygons(self):
        for shell, holes in _TEMPLATES:
            closed = shell + shell[:1]
            for i, hole in enumerate(holes):
                for v in hole:
                    assert point_in_ring(v, closed) and not point_on_ring(v, closed)
                for s, e in zip(hole, hole[1:] + hole[:1]):
                    assert not segments_cross_ring(s, e, closed)
                    for other in holes[i + 1:]:
                        assert not segments_cross_ring(s, e, other + other[:1])
                for other in holes[i + 1:]:
                    assert not point_in_ring(other[0], hole) and not point_in_ring(hole[0], other)

    @staticmethod
    def check_pair(a, b):
        expected = reference.intersects(a, b)
        assert predicates.intersects(a, b) == expected
        assert predicates.intersects(b, a) == reference.intersects(b, a) == expected

    @staticmethod
    def check_window(window, geom):
        expected = _reference_window(window, geom)
        assert predicates.intersects(window, geom) == expected
        assert predicates.intersects(geom, window) == expected
        if not window.is_empty:
            # the Polygon-operand path is the general kernel, not the window one
            assert predicates.intersects(Polygon.from_envelope(window), geom) == expected

    @given(lattice_geometries, lattice_geometries)
    @settings(max_examples=400, deadline=None)
    def test_general_pairs_on_the_lattice(self, a, b):
        self.check_pair(a, b)

    @given(uniform_geometries, uniform_geometries)
    @settings(max_examples=200, deadline=None)
    def test_general_pairs_on_uniform_floats(self, a, b):
        self.check_pair(a, b)

    @given(st.data())
    @settings(max_examples=600, deadline=None)
    def test_window_on_the_lattice(self, data):
        geom = data.draw(lattice_geometries)
        self.check_window(data.draw(windows_near(geom, _lattice)), geom)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_window_on_uniform_floats(self, data):
        geom = data.draw(uniform_geometries)
        self.check_window(data.draw(windows_near(geom, _uniform)), geom)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_window_on_holed_polygons(self, data):
        # sides drawn from the hole's own coordinates: windows that start in
        # a hole and leave it, that bridge two holes, that lie along a hole
        lattice = data.draw(st.booleans())
        polygons = lattice_polygons() if lattice else uniform_polygons()
        geom = data.draw(polygons.filter(lambda poly: poly.holes))
        self.check_window(data.draw(windows_near(geom, _lattice if lattice else _uniform)), geom)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_window_against_window(self, data):
        point = Point(0.0, 0.0)
        a = data.draw(windows_near(point, _lattice))
        b = data.draw(windows_near(point, _lattice))
        assert predicates.intersects(a, b) == predicates.intersects(b, a) == a.intersects(b)
        if not b.is_empty:
            assert predicates.intersects(a, b) == _reference_window(a, Polygon.from_envelope(b))

    # the cases the issue names, pinned so a strategy change cannot lose them
    HOLED = Polygon(
        [(0, 0), (8, 0), (8, 8), (0, 8)], [[(2, 2), (6, 2), (6, 6), (2, 6)]]
    )

    @pytest.mark.parametrize(
        "bounds, expected",
        [
            ((3, 3, 5, 5), False),      # inside the hole
            ((2, 2, 6, 6), True),       # exactly the hole: touches its boundary
            ((1, 1, 7, 7), True),       # swallows the hole
            ((0.5, 0.5, 1.5, 1.5), True),   # inside the shell, clear of the hole
            ((-2, -2, -1, -1), False),  # outside
            ((-2, 3, 0, 5), True),      # right side lies on the shell's left edge
            ((8, 8, 9, 9), True),       # corner on corner
            ((4, 4, 4, 4), False),      # point window in the hole
            ((2, 4, 2, 4), True),       # point window on the hole boundary
            ((4, -1, 4, 9), True),      # zero-width window through shell and hole
            ((3, 4, 5, 4), False),      # zero-height window inside the hole
            ((3, 3, 7, 7), True),       # starts in the hole, leaves it
            ((3, 3, 6, 5), True),       # inside the hole, one side on its boundary
            ((-1, -1, 9, 9), True),     # swallows the polygon
        ],
    )
    def test_named_window_cases(self, bounds, expected):
        window = Envelope(*map(float, bounds))
        assert predicates.intersects(window, self.HOLED) is expected
        self.check_window(window, self.HOLED)

    def test_only_hole_edges_cross(self):
        # a bar bridging two holes: none of its vertices is in the polygon,
        # no shell vertex is in the bar, and only hole edges cross it
        two_holes = Polygon(
            [(0, 0), (12, 0), (12, 6), (0, 6)],
            [[(1, 1), (5, 1), (5, 5), (1, 5)], [(7, 1), (11, 1), (11, 5), (7, 5)]],
        )
        bar = Polygon([(2, 2), (10, 2), (10, 4), (2, 4)])
        assert predicates.intersects(two_holes, bar)
        self.check_pair(two_holes, bar)
        self.check_pair(two_holes, LineString([(2, 3), (10, 3)]))
        # ... and the same bar wholly inside one hole touches nothing
        inside = Polygon([(2, 2), (4, 2), (4, 4), (2, 4)])
        assert not predicates.intersects(two_holes, inside)
        self.check_pair(two_holes, inside)

    def test_empty_window_intersects_nothing(self):
        empty = Envelope.empty()
        for geom in (Point(0, 0), LineString([(0, 0), (1, 1)]), self.HOLED,
                     GeometryCollection([self.HOLED]), GeometryCollection([])):
            assert not predicates.intersects(empty, geom)
            assert not predicates.intersects(geom, empty)
        assert not predicates.intersects(empty, empty)
        assert not predicates.intersects(Envelope(0, 0, 1, 1), GeometryCollection([]))

    def test_window_edge_crossing_without_a_vertex_inside(self):
        window = Envelope(0.0, 0.0, 2.0, 2.0)
        # clips the corner / passes just beyond it / touches it exactly
        assert predicates.intersects(window, LineString([(1.0, 3.0), (3.0, 1.0)]))
        assert not predicates.intersects(window, LineString([(1.0, 3.5), (3.5, 1.0)]))
        assert predicates.intersects(window, LineString([(1.0, 3.0), (3.0, 1.0), (9.0, 9.0)]))
        assert predicates.intersects(window, LineString([(0.0, 4.0), (4.0, 0.0)]))
        # beyond one side only: rejected on the outcodes
        assert not predicates.intersects(window, LineString([(3.0, -5.0), (3.0, 5.0)]))
