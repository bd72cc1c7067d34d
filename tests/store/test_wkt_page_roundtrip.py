"""WKT text → ``wkt.loads`` → page → ``CachedPage.record``, bit for bit.

The paper's pipeline parses WKT; the store serves what a page decode builds.
Both readers build lines and rings from flat float runs, so a record parsed
from text, framed into a page and decoded from it must be the same geometry:
the same type, the same WKB bytes, the same envelope floats (the sign of a
zero included) and the same userdata.  The text is written with ``repr`` of
every coordinate (and ``±1e999`` for ±inf), so -0.0, subnormals and the
largest doubles reach the parser as they are — ``wkt.dumps`` would print
-0.0 as ``0``.
"""

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import LineString, Point, Polygon, wkb, wkt
from repro.store.format import encode_page_v2, encode_record_body, page_crc32
from repro.store.page import CachedPage

value = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1e300, -1.7976931348623157e308, math.inf, -math.inf]
    ),
)
coord = st.tuples(value, value)


def number(v):
    """A coordinate as WKT text the reader turns back into the same float."""
    if math.isinf(v):
        return "1e999" if v > 0 else "-1e999"
    return repr(v)


def coords_text(coords):
    return ", ".join(f"{number(x)} {number(y)}" for x, y in coords)


def listed(tag, bodies):
    return f"{tag} EMPTY" if not bodies else f"{tag} ({', '.join(bodies)})"


line_body = st.lists(coord, min_size=2, max_size=8).map(lambda c: f"({coords_text(c)})")
ring_body = (
    st.lists(coord, min_size=3, max_size=8)
    .filter(lambda c: c[0] != c[-1] or len(c) > 3)
    .map(lambda c: f"({coords_text(c)})")
)
polygon_body = st.lists(ring_body, min_size=1, max_size=3).map(lambda r: f"({', '.join(r)})")
point_text = coord.map(lambda c: f"POINT ({coords_text([c])})")
simple_text = st.one_of(
    point_text,
    line_body.map("LINESTRING ".__add__),
    polygon_body.map("POLYGON ".__add__),  # holes: up to two
)
geometry_text = st.one_of(
    simple_text,
    st.lists(coord, max_size=4).map(
        lambda cs: listed("MULTIPOINT", [f"({coords_text([c])})" for c in cs])
    ),
    st.lists(line_body, max_size=3).map(lambda b: listed("MULTILINESTRING", b)),
    st.lists(polygon_body, max_size=3).map(lambda b: listed("MULTIPOLYGON", b)),
    st.lists(simple_text, max_size=3).map(lambda b: listed("GEOMETRYCOLLECTION", b)),
)
tail = st.sampled_from(["", "\tid=17", "\tid=17\tname=Long Lake", " trailing"])


def lines_of(geom):
    if isinstance(geom, LineString):
        return [geom]
    if isinstance(geom, Polygon):
        return geom.rings()
    if isinstance(geom, Point):
        return []
    return [line for member in geom for line in lines_of(member)]


def packed(envelope):
    return struct.pack("<4d", *envelope.as_tuple())


@settings(max_examples=250, deadline=None)
@given(st.lists(st.tuples(geometry_text, tail), min_size=1, max_size=6))
def test_a_parsed_record_decodes_from_its_page_as_parsed(records):
    parsed = [wkt.loads(text + extra) for text, extra in records]
    # the reader built runs, not pairs
    assert all(line._coords is None for g in parsed for line in lines_of(g))
    payload = encode_page_v2(
        [(i, g.envelope, encode_record_body(g)) for i, g in enumerate(parsed)]
    )
    page = CachedPage(0, payload, page_crc32(payload))
    for slot, geom in enumerate(parsed):
        record_id, decoded = page.record(slot)
        assert record_id == slot
        assert type(decoded) is type(geom)
        assert wkb.dumps(decoded) == wkb.dumps(geom)
        assert packed(decoded.envelope) == packed(geom.envelope)
        assert decoded.userdata == geom.userdata
    # neither the page encode nor the decode needed the pairs
    assert all(line._coords is None for g in parsed for line in lines_of(g))


def test_signed_zeros_and_infinities_survive_the_trip():
    text = "POLYGON ((-0 -0, 1e999 -0, 1e999 1e999, -0.0 1e999), (0 1, 2 1, 2 -0.0))\tid=1"
    geom = wkt.loads(text)
    payload = encode_page_v2([(7, geom.envelope, encode_record_body(geom))])
    _, decoded = CachedPage(0, payload, page_crc32(payload)).record(0)
    assert packed(decoded.envelope) == struct.pack("<4d", -0.0, -0.0, math.inf, math.inf)
    assert wkb.dumps(decoded) == wkb.dumps(geom)
    assert wkb.dumps(decoded)[13:29] == struct.pack("<2d", -0.0, -0.0)  # the first vertex
    assert decoded.userdata == "id=1"
