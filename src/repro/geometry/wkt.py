"""Well-Known Text (WKT) reader and writer.

WKT is the paper's primary on-disk format: one geometry per line (optionally
followed by tab-separated attributes), e.g.::

    POLYGON ((30 10, 40 40, 20 40, 30 10))

The reader is recursive descent over the OGC types the paper mentions (POINT,
LINESTRING, POLYGON, MULTIPOINT, MULTILINESTRING, MULTIPOLYGON,
GEOMETRYCOLLECTION, plus EMPTY for the collection types): tags, nesting and
``EMPTY`` are handled one pattern match at a time, but a coordinate list is
read **a ring at a time** — cut at its closing parenthesis, validated by a
compiled pattern, then split, converted and paired by C-level ``str`` / ``map``
/ ``zip`` calls — so the cost of a record follows its bytes, not its tokens.

Accept / reject contract: exactly the strings a greedy tokenizer over
*word | number | ( | ) | ,* would accept.  A number is
``[-+]?(digits[.digits] | .digits)[e[-+]digits]`` and nothing else — ``float``
is more liberal (``1_0``, ``nan``, ``inf``), so validity is decided by the
pattern, never by ``float`` raising.  Whitespace is space, tab, CR and LF; Z / M
ordinates are tolerated and dropped; text after the closing parenthesis (e.g.
tab-separated attributes of a raw dataset line) ends up in ``userdata`` — that
mirrors the paper's "collection of strings" parsing interface.
"""

from __future__ import annotations

import re
from typing import Callable, List, Sequence, Tuple, TypeVar

from .base import Geometry
from .linestring import LineString
from .multi import GeometryCollection, MultiLineString, MultiPoint, MultiPolygon
from .point import Point
from .polygon import Polygon

Coord = Tuple[float, float]
T = TypeVar("T")

__all__ = [
    "WKTParseError",
    "loads",
    "dumps",
    "format_coord",
    "format_coords",
]


class WKTParseError(ValueError):
    """Raised when a WKT string cannot be parsed."""


# --------------------------------------------------------------------------- #
# formatting (dumps)
# --------------------------------------------------------------------------- #
def _fmt_number(v: float) -> str:
    """Format a coordinate value without trailing zeros (``30.0`` → ``30``)."""
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def format_coord(coord: Coord) -> str:
    """``(x, y)`` → ``"x y"``."""
    return f"{_fmt_number(coord[0])} {_fmt_number(coord[1])}"


def format_coords(coords: Sequence[Coord]) -> str:
    """Coordinate list → ``"x1 y1, x2 y2, ..."``."""
    return ", ".join(format_coord(c) for c in coords)


def dumps(geom: Geometry) -> str:
    """Serialise a geometry to WKT (delegates to the geometry's own writer)."""
    return geom.wkt()


# --------------------------------------------------------------------------- #
# parsing (loads)
# --------------------------------------------------------------------------- #
_WS = r"[ \t\r\n]*"
#: every number has exactly one parse ("12" is not also "1" + "2" inside the
#: mantissa), so a failed match backtracks in linear time
_NUMBER = r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?"
_NUMBER_RE = re.compile(_NUMBER)


def _atomic_number(group: str) -> str:
    """One number that backtracking may not re-split (``12`` into ``1 2``).
    ``(?>...)`` needs Python 3.11; a lookahead capture plus a backreference is
    the same thing on 3.9."""
    return rf"(?=(?P<{group}>{_NUMBER}))(?P={group})"


#: ``x y`` and any number of further (Z / M) ordinates, however they are spaced
_COORD = (
    rf"{_WS}{_atomic_number('x')}{_WS}{_atomic_number('y')}(?:{_WS}{_atomic_number('z')})*{_WS}"
)
#: the common case: two numbers with whitespace between them.  Each ends at
#: whitespace or a comma, which no shorter match of it could, so plain matching
#: already is atomic.  Compiled ASCII-only (a quarter faster); a run with other
#: Unicode digits falls through to the general pattern, which accepts them.
_XY = rf"{_WS}{_NUMBER}[ \t\r\n]+{_NUMBER}{_WS}"
_COORD_RE = re.compile(_COORD)
# comma-terminated coordinates, a bounded number per match: the backtracking
# stack of one unbounded repeat makes a 100 K-vertex ring three times slower
_COORD_RUN_RE = re.compile(rf"(?:{_COORD},){{1,512}}")
_XY_RUN_RE = re.compile(rf"(?:{_XY},){{1,512}}", re.ASCII)
#: a geometry tag and, when one follows, the next word (``EMPTY``)
_TAG_RE = re.compile(rf"{_WS}([A-Za-z]+)(?:{_WS}([A-Za-z]+))?")
_LPAREN_RE = re.compile(rf"{_WS}\(")
_RPAREN_RE = re.compile(rf"{_WS}\)")
_SEPARATOR_RE = re.compile(rf"{_WS}([,)])")


def _expect(pattern: "re.Pattern[str]", what: str, text: str, pos: int) -> "re.Match[str]":
    m = pattern.match(text, pos)
    if m is None:
        raise WKTParseError(f"expected {what} at position {pos} of {text[:80]!r}")
    return m


def _is_run_of(pattern: "re.Pattern[str]", items: str) -> bool:
    """True when *items* is nothing but consecutive matches of *pattern*."""
    pos = 0
    while pos < len(items):
        m = pattern.match(items, pos)
        if m is None:
            return False
        pos = m.end()
    return True


def _coord_list(text: str, pos: int) -> Tuple[List[Coord], int]:
    """``( x y, x y, ... )``: the whole run up to the closing parenthesis is
    validated by a compiled pattern, then split, converted and paired by
    ``str`` / ``map`` / ``zip`` calls — no per-vertex Python step."""
    start = _expect(_LPAREN_RE, "'('", text, pos).end()
    end = text.find(")", start)
    if end < 0:
        raise WKTParseError(f"missing ')' after position {start} of {text[:80]!r}")
    items = text[start:end] + ","  # every coordinate now ends in a comma
    if _is_run_of(_XY_RUN_RE, items):
        values = list(map(float, items.replace(",", " ").split()))
        return list(zip(values[0::2], values[1::2])), end + 1
    if not _is_run_of(_COORD_RUN_RE, items):
        raise WKTParseError(f"malformed coordinate list at position {start} of {text[:80]!r}")
    # Z / M ordinates (or numbers run together, "1-2"): the first two of each
    coords = [tuple(map(float, _NUMBER_RE.findall(c)[:2])) for c in items[:-1].split(",")]
    return coords, end + 1


def _sequence(text: str, pos: int, item: Callable[[str, int], Tuple[T, int]]) -> Tuple[List[T], int]:
    """``( item, item, ... )`` → the item values and the end position."""
    pos = _expect(_LPAREN_RE, "'('", text, pos).end()
    values: List[T] = []
    while True:
        value, pos = item(text, pos)
        values.append(value)
        separator = _expect(_SEPARATOR_RE, "',' or ')'", text, pos)
        pos = separator.end()
        if separator.group(1) == ")":
            return values, pos


def _bare_point(text: str, pos: int) -> Tuple[Point, int]:
    m = _expect(_COORD_RE, "a coordinate", text, pos)
    return Point(float(m["x"]), float(m["y"])), m.end()


def _point(text: str, pos: int) -> Tuple[Point, int]:
    point, pos = _bare_point(text, _expect(_LPAREN_RE, "'('", text, pos).end())
    return point, _expect(_RPAREN_RE, "')'", text, pos).end()


def _multipoint_member(text: str, pos: int) -> Tuple[Point, int]:
    # MULTIPOINT accepts both "(1 2, 3 4)" and "((1 2), (3 4))".
    if _LPAREN_RE.match(text, pos):
        return _point(text, pos)
    return _bare_point(text, pos)


def _linestring(text: str, pos: int) -> Tuple[LineString, int]:
    coords, pos = _coord_list(text, pos)
    return LineString(coords), pos


def _polygon(text: str, pos: int) -> Tuple[Polygon, int]:
    rings, pos = _sequence(text, pos, _coord_list)
    return Polygon(rings[0], rings[1:]), pos


def _multipoint(text: str, pos: int) -> Tuple[MultiPoint, int]:
    points, pos = _sequence(text, pos, _multipoint_member)
    return MultiPoint(points), pos


def _multilinestring(text: str, pos: int) -> Tuple[MultiLineString, int]:
    lines, pos = _sequence(text, pos, _coord_list)
    return MultiLineString([LineString(c) for c in lines]), pos


def _multipolygon(text: str, pos: int) -> Tuple[MultiPolygon, int]:
    polys, pos = _sequence(text, pos, _polygon)
    return MultiPolygon(polys), pos


def _collection(text: str, pos: int) -> Tuple[GeometryCollection, int]:
    geoms, pos = _sequence(text, pos, _geometry)
    return GeometryCollection(geoms), pos


#: tag → (body reader, type built for ``<TAG> EMPTY`` or None when unsupported)
_READERS = {
    "POINT": (_point, None),
    "LINESTRING": (_linestring, None),
    "POLYGON": (_polygon, None),
    "MULTIPOINT": (_multipoint, MultiPoint),
    "MULTILINESTRING": (_multilinestring, MultiLineString),
    "MULTIPOLYGON": (_multipolygon, MultiPolygon),
    "GEOMETRYCOLLECTION": (_collection, GeometryCollection),
}


def _geometry(text: str, pos: int) -> Tuple[Geometry, int]:
    m = _expect(_TAG_RE, "a geometry tag", text, pos)
    tag, word = m.group(1).upper(), m.group(2)
    if tag not in _READERS:
        raise WKTParseError(f"unknown geometry tag {tag!r}")
    reader, empty_type = _READERS[tag]
    if word is not None and word.upper() == "EMPTY":
        if empty_type is None:
            raise WKTParseError(f"{tag} EMPTY is not supported")
        return empty_type([]), m.end()
    return reader(text, m.end(1))


def loads(text: str, userdata=None) -> Geometry:
    """Parse a WKT string into a geometry.

    Text after the closing parenthesis (e.g. tab-separated feature
    attributes on an OSM extract line) is ignored by the geometry parser but,
    when *userdata* is ``None``, stored in the returned geometry's
    ``userdata`` attribute so downstream code can keep the attributes around —
    the same role GEOS userdata plays in the paper.
    """
    geom, end = _geometry(text, 0)
    trailing = text[end:].strip()
    if userdata is not None:
        geom.userdata = userdata
    elif trailing:
        geom.userdata = trailing
    return geom
