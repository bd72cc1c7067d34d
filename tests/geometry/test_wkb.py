"""WKB codec round-trip tests (property-based).

The store's page format depends on `repro.geometry.wkb` being lossless, so
these tests hammer the codec with multi-geometries, collinear rings and
extreme coordinates.  Doubles survive `struct` packing bit-for-bit, so every
round trip must reproduce the coordinates *exactly*.
"""

import itertools
import struct

import _wkb_reference as reference  # the retired per-vertex codec, kept next to this file
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    wkb,
)

# extreme but finite doubles: full float64 range plus subnormals
coord_value = st.one_of(
    st.floats(min_value=-1e308, max_value=1e308, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
)
coordinate = st.tuples(coord_value, coord_value)

points = st.builds(Point, coord_value, coord_value)
linestrings = st.builds(LineString, st.lists(coordinate, min_size=2, max_size=8))


@st.composite
def rings(draw):
    """Closed rings, sometimes with deliberately collinear runs of vertices."""
    x = draw(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    y = draw(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    w = draw(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    h = draw(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    if draw(st.booleans()):
        # rectangle with collinear midpoints on every edge
        return [
            (x, y), (x + w / 2, y), (x + w, y),
            (x + w, y + h / 2), (x + w, y + h),
            (x + w / 2, y + h), (x, y + h), (x, y + h / 2), (x, y),
        ]
    return [(x, y), (x + w, y), (x + w, y + h), (x, y + h), (x, y)]


polygons = st.builds(Polygon, rings())
multipoints = st.builds(MultiPoint, st.lists(points, max_size=5))
multilinestrings = st.builds(MultiLineString, st.lists(linestrings, max_size=4))
multipolygons = st.builds(MultiPolygon, st.lists(polygons, max_size=3))
collections = st.builds(
    GeometryCollection,
    st.lists(st.one_of(points, linestrings, polygons, multipoints), max_size=4),
)
any_geometry = st.one_of(
    points, linestrings, polygons, multipoints, multilinestrings, multipolygons, collections
)


def assert_identical(a, b):
    """Structural equality with exact coordinate comparison."""
    assert a.geom_type == b.geom_type
    if isinstance(a, Point):
        assert (a.x, a.y) == (b.x, b.y)
    elif isinstance(a, LineString):
        assert list(a.coords) == list(b.coords)
    elif isinstance(a, Polygon):
        a_rings = [list(r.coords) for r in a.rings()]
        b_rings = [list(r.coords) for r in b.rings()]
        assert a_rings == b_rings
    else:  # multi / collection
        assert len(a) == len(b)
        for ga, gb in zip(a, b):
            assert_identical(ga, gb)


class TestWKBPropertyRoundTrip:
    @given(any_geometry)
    @settings(max_examples=150, deadline=None)
    def test_round_trip_exact(self, geom):
        assert_identical(geom, wkb.loads(wkb.dumps(geom)))

    @given(any_geometry)
    @settings(max_examples=50, deadline=None)
    def test_dumps_is_deterministic(self, geom):
        encoded = wkb.dumps(geom)
        assert encoded == wkb.dumps(wkb.loads(encoded))


class TestWKBEdgeCases:
    def test_collinear_ring(self):
        poly = Polygon([(0, 0), (2, 0), (4, 0), (4, 4), (2, 4), (0, 4), (0, 0)])
        assert_identical(poly, wkb.loads(wkb.dumps(poly)))

    def test_polygon_with_hole(self):
        poly = Polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10), (0, 0)],
            [[(2, 2), (4, 2), (4, 4), (2, 4), (2, 2)]],
        )
        assert_identical(poly, wkb.loads(wkb.dumps(poly)))

    def test_extreme_coordinates_bit_exact(self):
        values = [1.7976931348623157e308, 5e-324, -0.0, 0.1 + 0.2, -1e300]
        for v in values:
            point = wkb.loads(wkb.dumps(Point(v, -v)))
            # bit-for-bit, not merely ==: -0.0 must stay -0.0
            assert struct.pack("<d", point.x) == struct.pack("<d", v)
            assert struct.pack("<d", point.y) == struct.pack("<d", -v)

    def test_empty_multis(self):
        for geom in (MultiPoint([]), MultiLineString([]), MultiPolygon([]), GeometryCollection([])):
            back = wkb.loads(wkb.dumps(geom))
            assert back.geom_type == geom.geom_type
            assert len(back) == 0

    def test_nested_collection(self):
        inner = GeometryCollection([Point(1, 2), MultiPoint([Point(3, 4)])])
        outer = GeometryCollection([inner, LineString([(0, 0), (1e308, -1e308)])])
        assert_identical(outer, wkb.loads(wkb.dumps(outer)))

    def test_truncated_raises(self):
        data = wkb.dumps(Polygon([(0, 0), (1, 0), (1, 1), (0, 0)]))
        with pytest.raises(wkb.WKBParseError):
            wkb.loads(data[:-4])

    def test_unknown_type_code_raises(self):
        bad = struct.pack("<bI", 1, 99) + struct.pack("<dd", 0, 0)
        with pytest.raises(wkb.WKBParseError):
            wkb.loads(bad)


# --------------------------------------------------------------------------- #
# byte order
# --------------------------------------------------------------------------- #
def encode(geom, orders):
    """A test-side WKB writer that takes each geometry's byte order — nested
    members included — from the iterator *orders* ("<" or ">")."""
    e = next(orders)
    out = struct.pack(f"{e}bI", 1 if e == "<" else 0, wkb.GEOM_TYPE_CODES[geom.geom_type])
    if isinstance(geom, Point):
        return out + struct.pack(f"{e}dd", geom.x, geom.y)
    if isinstance(geom, Polygon):
        out += struct.pack(f"{e}I", len(geom.rings()))
        for ring in geom.rings():
            out += struct.pack(f"{e}I", len(ring.coords))
            out += b"".join(struct.pack(f"{e}dd", x, y) for x, y in ring.coords)
        return out
    if isinstance(geom, LineString):
        out += struct.pack(f"{e}I", len(geom.coords))
        return out + b"".join(struct.pack(f"{e}dd", x, y) for x, y in geom.coords)
    out += struct.pack(f"{e}I", len(geom))
    return out + b"".join(encode(member, orders) for member in geom)


HOLED = Polygon(
    [(0, 0), (10, 0), (10, 10), (0, 10), (0, 0)],
    [[(2, 2), (4, 2), (4, 4), (2, 4), (2, 2)], [(6, 6), (8, 6), (7, 8), (6, 6)]],
)
ONE_OF_EACH = [
    Point(1.5, -2.25),
    LineString([(0, 0), (1, 2), (3.5, -4)]),
    HOLED,
    MultiPoint([Point(1, 2), Point(3, 4)]),
    MultiLineString([LineString([(0, 0), (1, 1)]), LineString([(2, 2), (3, 5), (4, 4)])]),
    MultiPolygon([HOLED, Polygon([(20, 20), (21, 20), (21, 21), (20, 20)])]),
    GeometryCollection(
        [Point(9, 9), LineString([(0, 0), (5, 5)]), HOLED,
         GeometryCollection([MultiPoint([Point(7, 7)]), LineString([(1, 0), (0, 1)])])]
    ),
]


holed_polygons = st.builds(Polygon, rings(), st.lists(rings(), max_size=3))
nested_collections = st.builds(
    GeometryCollection,
    st.lists(st.one_of(points, holed_polygons, multipolygons, collections), max_size=3),
)


class TestEncodedSize:
    """``encoded_size`` is the wire size the sharded server charges per hit:
    it must be ``len(dumps(g))`` exactly, without encoding anything."""

    @given(
        st.one_of(any_geometry, holed_polygons, nested_collections),
        st.one_of(st.none(), st.text(max_size=8), st.dictionaries(st.text(max_size=3), st.integers())),
    )
    @settings(max_examples=300, deadline=None)
    def test_size_is_the_encoding(self, geom, userdata):
        geom.userdata = userdata  # not part of WKB: sized separately by the caller
        assert wkb.encoded_size(geom) == len(wkb.dumps(geom))

    @pytest.mark.parametrize(
        "geom, size",
        [
            (Point(1, 2), 21),
            (LineString([(0, 0), (1, 1), (2, 0)]), 9 + 16 * 3),
            (Polygon([(0, 0), (1, 0), (1, 1), (0, 0)]), 9 + 4 + 16 * 4),
            (MultiPoint([]), 9),
            (MultiLineString([]), 9),
            (MultiPolygon([]), 9),
            (GeometryCollection([]), 9),
            (GeometryCollection([GeometryCollection([]), Point(0, 0)]), 9 + 9 + 21),
        ],
        ids=lambda v: getattr(v, "geom_type", None),
    )
    def test_documented_formula(self, geom, size):
        assert wkb.encoded_size(geom) == size == len(wkb.dumps(geom))

    @pytest.mark.parametrize("geom", ONE_OF_EACH, ids=lambda g: g.geom_type)
    def test_one_of_each(self, geom):
        assert wkb.encoded_size(geom) == len(wkb.dumps(geom))


class TestByteOrder:
    """Regression: the ring reader hard-coded little-endian, so XDR
    linestrings and polygons raised ``truncated``."""

    @pytest.mark.parametrize("geom", ONE_OF_EACH, ids=lambda g: g.geom_type)
    def test_big_endian_round_trip(self, geom):
        xdr = encode(geom, itertools.repeat(">"))
        assert xdr != wkb.dumps(geom)
        assert_identical(geom, wkb.loads(xdr))
        assert wkb.dumps(wkb.loads(xdr)) == wkb.dumps(geom)

    @pytest.mark.parametrize("geom", ONE_OF_EACH[3:], ids=lambda g: g.geom_type)
    @pytest.mark.parametrize("first", "<>")
    def test_mixed_endian_members(self, geom, first):
        orders = itertools.cycle("<>" if first == "<" else "><")
        mixed = encode(geom, orders)
        assert_identical(geom, wkb.loads(mixed))

    @given(any_geometry)
    @settings(max_examples=100, deadline=None)
    def test_big_endian_property(self, geom):
        assert_identical(geom, wkb.loads(encode(geom, itertools.repeat(">"))))

    def test_memoryview_input(self):
        data = wkb.dumps(HOLED)
        assert_identical(HOLED, wkb.loads(memoryview(data)))

    @pytest.mark.parametrize("flag", [2, 7, 0x80, 0xFF])
    @pytest.mark.parametrize("geom", ONE_OF_EACH, ids=lambda g: g.geom_type)
    def test_flag_other_than_0_or_1_is_rejected(self, geom, flag):
        # regression: any flag but 1 was read as big-endian, so
        # b"\x07" + XDR point decoded as the point
        xdr = bytearray(encode(geom, itertools.repeat(">")))
        xdr[0] = flag
        with pytest.raises(wkb.WKBParseError, match=f"byte-order flag {flag} at offset 0"):
            wkb.loads(bytes(xdr))

    @pytest.mark.parametrize("endian", "<>")
    def test_bad_flag_on_a_nested_member_names_its_offset(self, endian):
        geom = GeometryCollection([Point(1, 2), MultiPoint([Point(3, 4)]), LineString([(0, 0), (1, 1)])])
        data = bytearray(encode(geom, itertools.repeat(endian)))
        # header 9, point 21, multipoint header 9: the inner point's flag
        inner = 9 + 21 + 9
        assert data[inner] == (1 if endian == "<" else 0)
        data[inner] = 3
        with pytest.raises(wkb.WKBParseError, match=f"byte-order flag 3 at offset {inner}"):
            wkb.loads(bytes(data))
        # ... and on the last member, a linestring
        data[inner] = 1 if endian == "<" else 0
        last = inner + 21
        data[last] = 9
        with pytest.raises(wkb.WKBParseError, match=f"byte-order flag 9 at offset {last}"):
            wkb.loads(bytes(data))


# --------------------------------------------------------------------------- #
# malformed input
# --------------------------------------------------------------------------- #
def _header(code, endian="<"):
    return struct.pack(f"{endian}bI", 1 if endian == "<" else 0, code)


class TestMalformed:
    """Every malformed payload is a :class:`WKBParseError` — never an
    ``IndexError``, a bare constructor ``ValueError`` or a ``struct.error`` —
    and an untrusted count is checked against the bytes that remain before
    anything is unpacked from it."""

    @pytest.mark.parametrize("endian", "<>")
    def test_polygon_with_zero_rings(self, endian):
        with pytest.raises(wkb.WKBParseError):
            wkb.loads(_header(3, endian) + struct.pack(f"{endian}I", 0))

    @pytest.mark.parametrize("endian", "<>")
    def test_one_coordinate_linestring(self, endian):
        data = _header(2, endian) + struct.pack(f"{endian}Idd", 1, 1.0, 2.0)
        with pytest.raises(wkb.WKBParseError):
            wkb.loads(data)

    def test_empty_linestring(self):
        with pytest.raises(wkb.WKBParseError):
            wkb.loads(_header(2) + struct.pack("<I", 0))

    def test_short_ring(self):
        ring = struct.pack("<I4d", 2, 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(wkb.WKBParseError):
            wkb.loads(_header(3) + struct.pack("<I", 1) + ring)
        # ... also as a hole behind a valid shell
        shell = struct.pack("<I8d", 4, 0.0, 0.0, 4.0, 0.0, 4.0, 4.0, 0.0, 0.0)
        with pytest.raises(wkb.WKBParseError):
            wkb.loads(_header(3) + struct.pack("<I", 2) + shell + ring)

    def test_ring_of_repeated_points_is_rejected_like_the_constructor(self):
        # 3 coordinates, closed: only 2 distinct — the constructor's rule
        ring = struct.pack("<I6d", 3, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(wkb.WKBParseError):
            wkb.loads(_header(3) + struct.pack("<I", 1) + ring)

    @pytest.mark.parametrize("code", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("endian", "<>")
    def test_count_larger_than_the_payload(self, code, endian, monkeypatch):
        # 2**32 - 1 coordinates / rings / members and 8 bytes of body: must
        # fail on the length check, never reach an unpack sized by the count
        calls = []
        real = struct.unpack_from

        def spy(fmt, *args):
            calls.append(fmt)
            return real(fmt, *args)

        monkeypatch.setattr(wkb.struct, "unpack_from", spy)
        data = _header(code, endian) + struct.pack(f"{endian}I", 0xFFFFFFFF) + b"\x00" * 8
        with pytest.raises(wkb.WKBParseError):
            wkb.loads(data)
        assert all(len(fmt) <= 3 for fmt in calls), calls

    def test_ring_count_larger_than_the_payload_inside_a_polygon(self):
        data = _header(3) + struct.pack("<II", 1, 1 << 28) + b"\x00" * 64
        with pytest.raises(wkb.WKBParseError):
            wkb.loads(data)

    def test_wrong_member_type(self):
        data = _header(4) + struct.pack("<I", 1) + wkb.dumps(LineString([(0, 0), (1, 1)]))
        with pytest.raises(wkb.WKBParseError):
            wkb.loads(data)

    @given(st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_garbage_never_escapes_as_another_exception(self, data):
        try:
            wkb.loads(data)
        except wkb.WKBParseError:
            pass

    @given(any_geometry, st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_truncation_is_a_parse_error(self, geom, data):
        encoded = wkb.dumps(geom)
        cut = data.draw(st.integers(0, len(encoded) - 1))
        with pytest.raises(wkb.WKBParseError):
            wkb.loads(encoded[:cut])


# --------------------------------------------------------------------------- #
# the ring-at-a-time codec against the retired per-vertex one
# --------------------------------------------------------------------------- #
class TestAgainstRetiredCodec:
    """``tests/geometry/_wkb_reference.py`` is the codec as it stood before:
    same bytes out, same geometries in."""

    @given(any_geometry)
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_same_geometry(self, geom):
        encoded = wkb.dumps(geom)
        assert encoded == reference.dumps(geom)
        decoded, expected = wkb.loads(encoded), reference.loads(encoded)
        assert_identical(decoded, expected)
        assert decoded.envelope == expected.envelope
        assert wkb.dumps(decoded) == encoded

    @pytest.mark.parametrize("geom", ONE_OF_EACH, ids=lambda g: g.geom_type)
    def test_one_of_each(self, geom):
        encoded = wkb.dumps(geom)
        assert encoded == reference.dumps(geom)
        assert_identical(wkb.loads(encoded), reference.loads(encoded))
        assert wkb.dumps(wkb.loads(encoded)) == encoded

    def test_unclosed_ring_is_closed_like_the_constructor(self):
        ring = struct.pack("<I6d", 3, 0.0, 0.0, 4.0, 0.0, 4.0, 4.0)
        data = _header(3) + struct.pack("<I", 1) + ring
        assert_identical(wkb.loads(data), reference.loads(data))
        assert len(wkb.loads(data).shell.coords) == 4

    def test_nan_coordinates_keep_the_envelope_rule(self):
        nan = float("nan")
        for coords in ([(nan, 1.0), (2.0, 3.0), (0.0, nan)], [(5.0, 5.0), (nan, nan), (1.0, 9.0)]):
            n = len(coords)
            flat = [v for c in coords for v in c]
            data = _header(2) + struct.pack(f"<I{2 * n}d", n, *flat)
            assert wkb.loads(data).envelope == reference.loads(data).envelope
