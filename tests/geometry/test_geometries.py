"""Geometry class behaviour (measures, envelopes, WKB)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import (
    Envelope,
    GeometryCollection,
    LinearRing,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    wkb,
    wkt,
)

coord = st.tuples(
    st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False),
)


class TestPoint:
    def test_basic(self):
        p = Point(1.5, -2.5)
        assert p.coord == (1.5, -2.5)
        assert p.envelope == Envelope.of_point(1.5, -2.5)
        assert p.num_points == 1
        assert p.area == 0.0 and p.length == 0.0

    def test_equality_and_hash(self):
        assert Point(1, 2) == Point(1, 2)
        assert hash(Point(1, 2)) == hash(Point(1, 2))
        assert Point(1, 2) != Point(2, 1)


class TestLineString:
    def test_length(self):
        ls = LineString([(0, 0), (3, 0), (3, 4)])
        assert ls.length == pytest.approx(7.0)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            LineString([(0, 0)])

    def test_envelope(self):
        ls = LineString([(0, 5), (10, -5)])
        assert ls.envelope.as_tuple() == (0, -5, 10, 5)

    def test_segments(self):
        ls = LineString([(0, 0), (1, 1), (2, 2)])
        assert ls.segments() == [((0, 0), (1, 1)), ((1, 1), (2, 2))]


class TestLinearRing:
    def test_auto_close(self):
        r = LinearRing([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert r.coords[0] == r.coords[-1]
        assert r.num_points == 5

    def test_requires_three_distinct(self):
        with pytest.raises(ValueError):
            LinearRing([(0, 0), (1, 1)])

    def test_area_and_orientation(self):
        r = LinearRing([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert r.area == 16.0
        assert r.signed_area > 0
        rev = LinearRing([(0, 0), (0, 4), (4, 4), (4, 0)])
        assert rev.signed_area < 0
        assert rev.area == 16.0


class TestPolygon:
    def test_area_with_hole(self):
        p = Polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(2, 2), (4, 2), (4, 4), (2, 4)]],
        )
        assert p.area == pytest.approx(96.0)
        assert p.num_points == 10

    def test_box_constructor(self):
        b = Polygon.box(0, 0, 2, 3)
        assert b.area == 6.0
        assert b.envelope.as_tuple() == (0, 0, 2, 3)

    def test_from_envelope(self):
        e = Envelope(1, 2, 3, 4)
        assert Polygon.from_envelope(e).envelope == e

    def test_from_empty_envelope_raises(self):
        with pytest.raises(ValueError):
            Polygon.from_envelope(Envelope.empty())

    def test_contains_point_respects_holes(self):
        p = Polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(2, 2), (4, 2), (4, 4), (2, 4)]],
        )
        assert p.contains_point(1, 1)
        assert not p.contains_point(3, 3)



class TestMulti:
    def test_multipoint(self):
        mp = MultiPoint([Point(0, 0), Point(2, 2)])
        assert len(mp) == 2
        assert mp.envelope.as_tuple() == (0, 0, 2, 2)
        assert mp.num_points == 2

    def test_type_enforcement(self):
        with pytest.raises(TypeError):
            MultiPoint([LineString([(0, 0), (1, 1)])])

    def test_multipolygon_area(self):
        mp = MultiPolygon([Polygon.box(0, 0, 1, 1), Polygon.box(5, 5, 7, 7)])
        assert mp.area == pytest.approx(1 + 4)

    def test_collection_mixed(self):
        gc = GeometryCollection([Point(0, 0), LineString([(0, 0), (3, 4)])])
        assert gc.length == pytest.approx(5.0)
        assert not gc.is_empty

    def test_empty_collection(self):
        gc = GeometryCollection([])
        assert gc.is_empty
        assert gc.envelope.is_empty
        assert gc.wkt() == "GEOMETRYCOLLECTION EMPTY"

    def test_iteration_and_indexing(self):
        mls = MultiLineString([LineString([(0, 0), (1, 1)]), LineString([(2, 2), (3, 3)])])
        assert mls[1].coords[0] == (2, 2)
        assert [g.num_points for g in mls] == [2, 2]


class TestWKB:
    CASES = [
        "POINT (30 10)",
        "LINESTRING (30 10, 10 30, 40 40)",
        "POLYGON ((30 10, 40 40, 20 40, 30 10))",
        "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))",
        "MULTIPOINT ((1 2), (3 4))",
        "MULTILINESTRING ((0 0, 1 1), (2 2, 3 3))",
        "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)))",
        "GEOMETRYCOLLECTION (POINT (1 2), LINESTRING (0 0, 1 1))",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_roundtrip(self, text):
        g = wkt.loads(text)
        decoded = wkb.loads(wkb.dumps(g))
        assert decoded.wkt() == g.wkt()

    def test_truncated_raises(self):
        data = wkb.dumps(wkt.loads("POLYGON ((0 0, 1 0, 1 1, 0 0))"))
        with pytest.raises(wkb.WKBParseError):
            wkb.loads(data[: len(data) // 2])

    @given(st.lists(coord, min_size=2, max_size=30))
    def test_linestring_wkb_roundtrip_property(self, coords):
        ls = LineString(coords)
        decoded = wkb.loads(wkb.dumps(ls))
        assert isinstance(decoded, LineString)
        assert decoded.num_points == ls.num_points
        assert decoded.envelope == ls.envelope

    @given(st.lists(coord, min_size=1, max_size=20))
    def test_multipoint_wkb_roundtrip_property(self, coords):
        mp = MultiPoint([Point(x, y) for x, y in coords])
        decoded = wkb.loads(wkb.dumps(mp))
        assert decoded.num_points == mp.num_points
