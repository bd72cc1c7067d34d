"""WKT parser / writer tests."""

import re

import _wkt_reference  # the retired tokenizer reader, kept next to this file
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import generate_dataset
from repro.geometry import (
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    WKTParseError,
    wkt,
)
from repro.pfs import LustreFilesystem

coord = st.tuples(
    st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False),
)


class TestParsePoint:
    def test_simple(self):
        p = wkt.loads("POINT (30 10)")
        assert isinstance(p, Point)
        assert (p.x, p.y) == (30, 10)

    def test_negative_and_float(self):
        p = wkt.loads("POINT (-30.5 1.25e2)")
        assert (p.x, p.y) == (-30.5, 125.0)

    def test_lowercase_tag(self):
        assert isinstance(wkt.loads("point (1 2)"), Point)

    def test_extra_whitespace(self):
        assert isinstance(wkt.loads("  POINT   (  1   2 ) "), Point)

    def test_z_ordinate_dropped(self):
        p = wkt.loads("POINT (1 2 3)")
        assert (p.x, p.y) == (1, 2)


class TestParseLineString:
    def test_simple(self):
        ls = wkt.loads("LINESTRING (30 10, 10 30, 40 40)")
        assert isinstance(ls, LineString)
        assert ls.num_points == 3
        assert ls.coords[1] == (10, 30)

    def test_single_point_rejected(self):
        with pytest.raises((WKTParseError, ValueError)):
            wkt.loads("LINESTRING (30 10)")


class TestParsePolygon:
    def test_paper_example(self):
        p = wkt.loads("POLYGON ((30 10, 40 40, 20 40, 30 10))")
        assert isinstance(p, Polygon)
        assert p.num_points == 4
        assert p.area == pytest.approx(300.0)

    def test_with_hole(self):
        p = wkt.loads(
            "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))"
        )
        assert len(p.holes) == 1
        assert p.area == pytest.approx(100 - 4)

    def test_unclosed_ring_gets_closed(self):
        p = wkt.loads("POLYGON ((0 0, 4 0, 4 4, 0 4))")
        assert p.shell.coords[0] == p.shell.coords[-1]


class TestParseMulti:
    def test_multipoint_plain(self):
        mp = wkt.loads("MULTIPOINT (1 2, 3 4)")
        assert isinstance(mp, MultiPoint)
        assert len(mp) == 2

    def test_multipoint_parenthesised(self):
        mp = wkt.loads("MULTIPOINT ((1 2), (3 4))")
        assert len(mp) == 2

    def test_multilinestring(self):
        ml = wkt.loads("MULTILINESTRING ((0 0, 1 1), (2 2, 3 3, 4 4))")
        assert isinstance(ml, MultiLineString)
        assert ml.num_points == 5

    def test_multipolygon(self):
        mp = wkt.loads(
            "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5)))"
        )
        assert isinstance(mp, MultiPolygon)
        assert len(mp) == 2

    def test_geometrycollection(self):
        gc = wkt.loads("GEOMETRYCOLLECTION (POINT (1 2), LINESTRING (0 0, 1 1))")
        assert isinstance(gc, GeometryCollection)
        assert len(gc) == 2

    def test_empty_multipolygon(self):
        assert wkt.loads("MULTIPOLYGON EMPTY").is_empty


class TestUserdata:
    def test_trailing_attributes_stored(self):
        g = wkt.loads("POINT (1 2)\t42\thighway=primary")
        assert g.userdata == "42\thighway=primary"

    def test_explicit_userdata_wins(self):
        g = wkt.loads("POINT (1 2)\tattrs", userdata={"id": 7})
        assert g.userdata == {"id": 7}

    def test_no_trailing_attributes(self):
        assert wkt.loads("POINT (1 2)").userdata is None


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "CIRCLE (0 0, 5)",
            "POINT 1 2",
            "POLYGON ((0 0, 1 1))",
            "LINESTRING (a b, c d)",
            "POINT (1 2",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises((WKTParseError, ValueError)):
            wkt.loads(bad)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "POINT (30 10)",
            "LINESTRING (30 10, 10 30, 40 40)",
            "POLYGON ((30 10, 40 40, 20 40, 30 10))",
            "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))",
            "MULTIPOINT ((1 2), (3 4))",
            "MULTILINESTRING ((0 0, 1 1), (2 2, 3 3))",
            "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)))",
        ],
    )
    def test_parse_format_parse_is_stable(self, text):
        g1 = wkt.loads(text)
        g2 = wkt.loads(g1.wkt())
        assert g1.wkt() == g2.wkt()
        assert g1.envelope == g2.envelope

    @given(st.lists(coord, min_size=3, max_size=12))
    def test_polygon_roundtrip_property(self, coords):
        # Degenerate (collinear / duplicate) rings may legitimately fail to
        # build; only exercise the ones that construct successfully.
        try:
            poly = Polygon(coords)
        except ValueError:
            return
        parsed = wkt.loads(poly.wkt())
        assert isinstance(parsed, Polygon)
        assert parsed.envelope == poly.envelope
        assert parsed.area == pytest.approx(poly.area, rel=1e-9, abs=1e-9)

    @given(st.lists(coord, min_size=2, max_size=20))
    def test_linestring_roundtrip_property(self, coords):
        ls = LineString(coords)
        parsed = wkt.loads(ls.wkt())
        assert parsed.num_points == ls.num_points
        assert parsed.envelope == ls.envelope


# --------------------------------------------------------------------------- #
# the ring-at-a-time reader against the tokenizer reader it replaced
# --------------------------------------------------------------------------- #
def outcome(loads, text):
    """What a reader makes of *text*: the geometry it builds, or the exact
    exception class it raises."""
    try:
        geom = loads(text)
    except ValueError as exc:  # WKTParseError is a ValueError
        return ("rejected", type(exc))
    return (type(geom), geom.wkt(), geom.userdata)


def assert_same_as_reference(text):
    assert outcome(wkt.loads, text) == outcome(_wkt_reference.loads, text), repr(text)


ring = st.lists(coord, min_size=3, max_size=8).filter(lambda c: c[0] != c[-1] or len(c) > 3)
points = st.builds(lambda c: Point(*c), coord)
linestrings = st.builds(LineString, st.lists(coord, min_size=2, max_size=8))
polygons = st.builds(Polygon, ring, st.lists(ring, max_size=2))
simple = st.one_of(points, linestrings, polygons)
geometries = st.one_of(
    simple,
    st.builds(MultiPoint, st.lists(points, max_size=4)),
    st.builds(MultiLineString, st.lists(linestrings, max_size=3)),
    st.builds(MultiPolygon, st.lists(polygons, max_size=3)),
    st.builds(GeometryCollection, st.lists(simple, max_size=3)),
)
blank = st.sampled_from([" ", "  ", "\t", " \t ", "\n", "\r\n", ""])
tail = st.sampled_from(["", "\tid=17", "\tid=17\tname=Long Lake", " trailing", "\r", "\r\n", ") 7"])
EDGE_CASES = [
    "POINT (1. .5)",
    "POINT (-1e-3 +2E+5)",
    "POINT Z (1 2 3)",
    "POINT (1 2 3)",
    "LINESTRING (1 2 3 4, 5 6 7 8)",
    "LINESTRING (1 2 3, 4 5)",
    "POINT EMPTY",
    "LINESTRING EMPTY",
    "POLYGON EMPTY",
    "MULTIPOINT (1 2, 3 4)",
    "MULTIPOINT ((1 2), (3 4))",
    "MULTIPOINT ((1 2), 3 4 5)",
    "MULTIPOINT EMPTY",
    "MULTILINESTRING EMPTY",
    "MULTIPOLYGON EMPTY",
    "multipolygon empty\tid=3",
    "MULTIPOLYGON EMPTYX",
    "GEOMETRYCOLLECTION EMPTY",
    "GEOMETRYCOLLECTION (POINT (1 2), GEOMETRYCOLLECTION (LINESTRING (0 0, 1 1), MULTIPOINT EMPTY))",
    "GEOMETRYCOLLECTION (POINT (1 2), POLYGON ((0 0, 1 1)))",
    "MULTILINESTRING ((0 0), (1 1",
    "MULTIPOLYGON (((0 0, 1 1)), ((0 0, 1 0, 1 1",
    "POLYGON ((0 0, 1 0, 1 1)",
    "POLYGON ((0 0, 1 0, 1 1)))",
    "POLYGON (0 0, 1 0, 1 1)",
    "POLYGON ((0 0, 1 0, 1 1))",
    "POLYGON ((0 0, 1 0, 0 0))",
    "POLYGON ((0 0, 1 0, 1 1, 0 0), (0.2 0.2, 0.4 0.2))",
    "POINT (1_0 2)",
    "POINT (nan nan)",
    "POINT (inf 0)",
    "POINT (0x1p3 1)",
    "POINT (. 1)",
    "POINT (1,2)",
    "POINT (12)",
    "POINT (1-2)",
    "POINT (1.5.5)",
    "POINT (1e55e5 2)",
    "POINT (1e 2)",
    "POINT (+-1 2)",
    "POINT (\u0663 \u0664)",
    "LINESTRING (\u0663 \u0664, 1 2)",
    "LINESTRING (\u0663 \u0664 5, 1 2)",
    "POINT (1\x0b2)",
    "POINT (1\u00a02)",
    "LINESTRING (0 0, 1 1,)",
    "LINESTRING (, 0 0, 1 1)",
    "LINESTRING (0 0 1 1)",
    "LINESTRING (0 0,, 1 1)",
    "LINESTRING ()",
    "LINESTRING (0 0, (1 1))",
    "LINESTRING (1-2 5, 3 4)",
    "POINT (1 2) id=5",
    "POINT (1 2)\tid=5",
    "POINT (1 2)id=5",
    "POINT(1 2)",
    "  POINT\t(\r\n1\n2\r\n)\r\n",
    "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))\r",
    "POINT1 2",
    "POINTZ (1 2)",
    "1 2",
    "(1 2)",
    "",
    "   ",
]


class TestAgainstRetiredReader:
    @settings(max_examples=300, deadline=None)
    @given(geometries, st.data())
    def test_generated_geometries_with_noise(self, geom, data):
        text = re.sub(" ", lambda _: data.draw(blank), wkt.dumps(geom))
        text = re.sub(r"[(),]", lambda m: data.draw(blank) + m.group() + data.draw(blank), text)
        text = data.draw(st.sampled_from([str.upper, str.lower, str.title]))(text)
        assert_same_as_reference(data.draw(blank) + text + data.draw(tail))

    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_edge_table(self, text):
        assert_same_as_reference(text)

    def test_every_lakes_record(self, tmp_path):
        fs = LustreFilesystem(tmp_path / "lustre")
        path = generate_dataset(fs, "lakes", scale=0.2)
        with fs.open(path) as fh:
            records = fh.pread(0, fh.size).decode().split("\n")
        assert len(records) > 100
        for record in records:
            assert_same_as_reference(record)

    def test_malformed_long_ring_is_rejected_in_linear_time(self):
        """No timer: with a number pattern that can split ``12`` two ways the
        backtracking is exponential in the vertex count and never returns."""
        ring = ", ".join(f"{i}123456 {i}654321" for i in range(2000))
        for bad in (f"POLYGON (({ring} x))", f"POLYGON (({ring}", f"LINESTRING ({ring}, 1e55e5 2)"):
            assert outcome(wkt.loads, bad) == ("rejected", WKTParseError)
        assert wkt.loads(f"LINESTRING ({ring})").num_points == 2000
