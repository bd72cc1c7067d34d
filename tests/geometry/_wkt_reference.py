"""The retired tokenizer-based WKT reader, kept verbatim as a test oracle.

This is the reader ``repro.geometry.wkt`` shipped before the ring-at-a-time
reader replaced it (``_TOKEN_RE`` … ``loads``, byte for byte).  It exists only
so ``test_wkt.py`` can assert that the new reader accepts, rejects and builds
exactly what this one does; nothing under ``src/`` may import it.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.geometry import (
    Geometry,
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
)
from repro.geometry.wkt import WKTParseError

Coord = Tuple[float, float]

_TOKEN_RE = re.compile(
    r"""
    (?P<word>[A-Za-z]+)
    | (?P<number>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<comma>,)
    """,
    re.VERBOSE,
)


class _Tokenizer:
    """Streams WKT tokens; stops cleanly at trailing attribute text."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self._peeked: Optional[Tuple[str, str]] = None

    def _scan(self) -> Optional[Tuple[str, str]]:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        m = _TOKEN_RE.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        kind = m.lastgroup or ""
        return (kind, m.group())

    def peek(self) -> Optional[Tuple[str, str]]:
        if self._peeked is None:
            self._peeked = self._scan()
        return self._peeked

    def next(self) -> Optional[Tuple[str, str]]:
        tok = self.peek()
        self._peeked = None
        return tok

    def expect(self, kind: str) -> str:
        tok = self.next()
        if tok is None or tok[0] != kind:
            raise WKTParseError(
                f"expected {kind} at position {self.pos} of {self.text[:80]!r}, got {tok}"
            )
        return tok[1]

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[str]:
        tok = self.peek()
        if tok is not None and tok[0] == kind and (value is None or tok[1].upper() == value):
            self.next()
            return tok[1]
        return None


def _parse_coord(tz: _Tokenizer) -> Coord:
    x = float(tz.expect("number"))
    y = float(tz.expect("number"))
    # Tolerate (and drop) Z / M ordinates.
    while True:
        tok = tz.peek()
        if tok is not None and tok[0] == "number":
            tz.next()
        else:
            break
    return (x, y)


def _parse_coord_list(tz: _Tokenizer) -> List[Coord]:
    tz.expect("lparen")
    coords = [_parse_coord(tz)]
    while tz.accept("comma"):
        coords.append(_parse_coord(tz))
    tz.expect("rparen")
    return coords


def _parse_ring_list(tz: _Tokenizer) -> List[List[Coord]]:
    tz.expect("lparen")
    rings = [_parse_coord_list(tz)]
    while tz.accept("comma"):
        rings.append(_parse_coord_list(tz))
    tz.expect("rparen")
    return rings


def _is_empty(tz: _Tokenizer) -> bool:
    return tz.accept("word", "EMPTY") is not None


def _parse_point(tz: _Tokenizer) -> Point:
    if _is_empty(tz):
        raise WKTParseError("POINT EMPTY is not supported")
    tz.expect("lparen")
    coord = _parse_coord(tz)
    tz.expect("rparen")
    return Point(*coord)


def _parse_linestring(tz: _Tokenizer) -> LineString:
    if _is_empty(tz):
        raise WKTParseError("LINESTRING EMPTY is not supported")
    return LineString(_parse_coord_list(tz))


def _parse_polygon(tz: _Tokenizer) -> Polygon:
    if _is_empty(tz):
        raise WKTParseError("POLYGON EMPTY is not supported")
    rings = _parse_ring_list(tz)
    return Polygon(rings[0], rings[1:])


def _parse_multipoint(tz: _Tokenizer) -> MultiPoint:
    if _is_empty(tz):
        return MultiPoint([])
    tz.expect("lparen")
    points: List[Point] = []
    while True:
        # MULTIPOINT accepts both "(1 2, 3 4)" and "((1 2), (3 4))".
        if tz.accept("lparen"):
            coord = _parse_coord(tz)
            tz.expect("rparen")
        else:
            coord = _parse_coord(tz)
        points.append(Point(*coord))
        if not tz.accept("comma"):
            break
    tz.expect("rparen")
    return MultiPoint(points)


def _parse_multilinestring(tz: _Tokenizer) -> MultiLineString:
    if _is_empty(tz):
        return MultiLineString([])
    lines = [LineString(c) for c in _parse_ring_list(tz)]
    return MultiLineString(lines)


def _parse_multipolygon(tz: _Tokenizer) -> MultiPolygon:
    if _is_empty(tz):
        return MultiPolygon([])
    tz.expect("lparen")
    polys: List[Polygon] = []
    while True:
        rings = _parse_ring_list(tz)
        polys.append(Polygon(rings[0], rings[1:]))
        if not tz.accept("comma"):
            break
    tz.expect("rparen")
    return MultiPolygon(polys)


def _parse_collection(tz: _Tokenizer) -> GeometryCollection:
    if _is_empty(tz):
        return GeometryCollection([])
    tz.expect("lparen")
    geoms: List[Geometry] = []
    while True:
        geoms.append(_parse_geometry(tz))
        if not tz.accept("comma"):
            break
    tz.expect("rparen")
    return GeometryCollection(geoms)


_PARSERS = {
    "POINT": _parse_point,
    "LINESTRING": _parse_linestring,
    "POLYGON": _parse_polygon,
    "MULTIPOINT": _parse_multipoint,
    "MULTILINESTRING": _parse_multilinestring,
    "MULTIPOLYGON": _parse_multipolygon,
    "GEOMETRYCOLLECTION": _parse_collection,
}


def _parse_geometry(tz: _Tokenizer) -> Geometry:
    tok = tz.next()
    if tok is None or tok[0] != "word":
        raise WKTParseError(f"expected a geometry tag, got {tok}")
    tag = tok[1].upper()
    parser = _PARSERS.get(tag)
    if parser is None:
        raise WKTParseError(f"unknown geometry tag {tag!r}")
    return parser(tz)


def loads(text: str, userdata=None) -> Geometry:
    """Parse a WKT string into a geometry.

    Text after the closing parenthesis (e.g. tab-separated feature
    attributes on an OSM extract line) is ignored by the geometry parser but,
    when *userdata* is ``None``, stored in the returned geometry's
    ``userdata`` attribute so downstream code can keep the attributes around —
    the same role GEOS userdata plays in the paper.
    """
    tz = _Tokenizer(text)
    geom = _parse_geometry(tz)
    trailing = text[tz.pos :].strip()
    if userdata is not None:
        geom.userdata = userdata
    elif trailing:
        geom.userdata = trailing
    return geom
