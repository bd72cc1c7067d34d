"""Well-Known Binary (WKB) codec.

WKB is the binary twin of WKT ("used to transfer and store the geometries in
spatial databases" — §2 of the paper).  The serialiser here is used in two
places of the reproduction:

* the communication-buffer management module serialises geometries grouped by
  grid cell before the ``Alltoallv`` exchange, and
* the binary fixed-record datasets (points / MBRs) used for the
  non-contiguous-access experiments.

The encoding follows the OGC WKB layout: a byte-order flag, a uint32 geometry
type code, then coordinate data.  Only 2-D geometries are produced.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import List, Sequence, Tuple

from .base import Geometry
from .linestring import LinearRing, LineString
from .multi import GeometryCollection, MultiLineString, MultiPoint, MultiPolygon
from .point import Point
from .polygon import Polygon

Coord = Tuple[float, float]

__all__ = ["dumps", "encoded_size", "loads", "WKBParseError", "GEOM_TYPE_CODES"]

GEOM_TYPE_CODES = {
    "Point": 1,
    "LineString": 2,
    "Polygon": 3,
    "MultiPoint": 4,
    "MultiLineString": 5,
    "MultiPolygon": 6,
    "GeometryCollection": 7,
}
_CODE_TO_TYPE = {v: k for k, v in GEOM_TYPE_CODES.items()}
_COLLECTIONS = {
    "MultiPoint": MultiPoint,
    "MultiLineString": MultiLineString,
    "MultiPolygon": MultiPolygon,
    "GeometryCollection": GeometryCollection,
}

_LE = 1  # little-endian flag byte


class WKBParseError(ValueError):
    """Raised when a WKB byte string cannot be decoded."""


# --------------------------------------------------------------------------- #
# encoding
# --------------------------------------------------------------------------- #
def _pack_coords(coords: Sequence[Coord]) -> bytes:
    """Count plus the flattened coordinates, in one ``struct.pack``."""
    n = len(coords)
    return struct.pack(f"<I{2 * n}d", n, *chain.from_iterable(coords))


def dumps(geom: Geometry) -> bytes:
    """Serialise *geom* to little-endian WKB."""
    header = struct.pack("<bI", _LE, GEOM_TYPE_CODES[geom.geom_type])
    if isinstance(geom, Point):
        return header + struct.pack("<dd", geom.x, geom.y)
    if isinstance(geom, Polygon):
        rings = geom.rings()
        parts = [header, struct.pack("<I", len(rings))]
        parts.extend(_pack_coords(ring.coords) for ring in rings)
        return b"".join(parts)
    if isinstance(geom, LineString):
        return header + _pack_coords(geom.coords)
    if isinstance(geom, GeometryCollection):
        parts = [header, struct.pack("<I", len(geom))]
        parts.extend(map(dumps, geom))
        return b"".join(parts)
    raise TypeError(f"cannot encode geometry type {geom.geom_type}")


def encoded_size(geom: Geometry) -> int:
    """``len(dumps(geom))`` by arithmetic over ring lengths, nothing encoded
    (userdata is not part of WKB): Point 21, LineString 9 + 16 n, Polygon
    9 + 4 + 16 n per ring, collections 9 + their members."""
    if isinstance(geom, Polygon):
        size = 13 + 16 * len(geom.shell.coords)
        for hole in geom.holes:
            size += 4 + 16 * len(hole.coords)
        return size
    if isinstance(geom, LineString):
        return 9 + 16 * len(geom.coords)
    if isinstance(geom, Point):
        return 21
    if isinstance(geom, GeometryCollection):
        return 9 + sum(map(encoded_size, geom))
    raise TypeError(f"cannot encode geometry type {geom.geom_type}")


# --------------------------------------------------------------------------- #
# decoding
# --------------------------------------------------------------------------- #
# Every count in a payload is untrusted: it is checked against the bytes that
# remain before anything is unpacked or allocated from it.
def _read_header(data, offset: int) -> Tuple[str, str, int]:
    """``(endian, geometry type, offset past the header)``; each geometry,
    nested members included, carries its own byte-order flag."""
    if offset + 5 > len(data):
        raise WKBParseError("truncated WKB payload")
    endian = "<" if data[offset] == _LE else ">"
    (code,) = struct.unpack_from(f"{endian}I", data, offset + 1)
    gtype = _CODE_TO_TYPE.get(code)
    if gtype is None:
        raise WKBParseError(f"unknown WKB geometry code {code}")
    return endian, gtype, offset + 5


def _read_count(data, offset: int, endian: str) -> Tuple[int, int]:
    if offset + 4 > len(data):
        raise WKBParseError("truncated WKB payload")
    return struct.unpack_from(f"{endian}I", data, offset)[0], offset + 4


def _read_columns(data, offset: int, endian: str) -> Tuple[tuple, tuple, int]:
    """One coordinate run (a linestring body or a ring) as ``(xs, ys, offset
    past it)``: a single ``unpack_from`` for the whole run."""
    n, offset = _read_count(data, offset, endian)
    end = offset + 16 * n
    if end > len(data):
        raise WKBParseError("truncated WKB payload")
    values = struct.unpack_from(f"{endian}{2 * n}d", data, offset)
    return values[0::2], values[1::2], end


def _read_line(cls, data, offset: int, endian: str):
    xs, ys, offset = _read_columns(data, offset, endian)
    try:
        return cls.from_xy(xs, ys), offset
    except ValueError as exc:  # too few (distinct) coordinates
        raise WKBParseError(str(exc)) from exc


def _read_geometry(data, offset: int) -> Tuple[Geometry, int]:
    endian, gtype, offset = _read_header(data, offset)
    if gtype == "Point":
        if offset + 16 > len(data):
            raise WKBParseError("truncated WKB payload")
        x, y = struct.unpack_from(f"{endian}dd", data, offset)
        return Point(x, y), offset + 16
    if gtype == "LineString":
        return _read_line(LineString, data, offset, endian)
    n, offset = _read_count(data, offset, endian)
    if gtype == "Polygon":
        if n == 0:
            raise WKBParseError("polygon without rings")
        rings = []
        for _ in range(n):
            ring, offset = _read_line(LinearRing, data, offset, endian)
            rings.append(ring)
        return Polygon(rings[0], rings[1:]), offset
    # multi / collection types recurse into full WKB members
    members: List[Geometry] = []
    for _ in range(n):
        member, offset = _read_geometry(data, offset)
        members.append(member)
    try:
        return _COLLECTIONS[gtype](members), offset
    except TypeError as exc:  # e.g. a linestring inside a MULTIPOINT
        raise WKBParseError(str(exc)) from exc


def loads(data: bytes) -> Geometry:
    """Decode a WKB byte string produced by :func:`dumps` (or PostGIS/GEOS),
    little- or big-endian; malformed input raises :class:`WKBParseError`."""
    return _read_geometry(data, 0)[0]
