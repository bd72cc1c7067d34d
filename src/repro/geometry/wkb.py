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
from typing import List, Optional, Tuple

from .base import Geometry
from .linestring import LinearRing, LineString
from .multi import GeometryCollection, MultiLineString, MultiPoint, MultiPolygon
from .point import Point
from .polygon import Polygon

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
_POINT, _LINESTRING, _POLYGON = 1, 2, 3
#: the types whose members are full WKB geometries, by type code
_COLLECTIONS = {
    GEOM_TYPE_CODES[cls.geom_type]: cls
    for cls in (MultiPoint, MultiLineString, MultiPolygon, GeometryCollection)
}

_LE = 1  # little-endian flag byte


class WKBParseError(ValueError):
    """Raised when a WKB byte string cannot be decoded."""


# --------------------------------------------------------------------------- #
# encoding
# --------------------------------------------------------------------------- #
def _pack_line(line: LineString) -> bytes:
    """Count plus the interleaved coordinates, in one ``struct.pack``: the
    run a decoded line still holds goes in as is, pairs are flattened."""
    run = line._run
    if run is None:
        run = tuple(chain.from_iterable(line.coords))
    return struct.pack(f"<I{len(run)}d", len(run) // 2, *run)


def dumps(geom: Geometry) -> bytes:
    """Serialise *geom* to little-endian WKB."""
    header = struct.pack("<bI", _LE, GEOM_TYPE_CODES[geom.geom_type])
    if isinstance(geom, Point):
        return header + struct.pack("<dd", geom.x, geom.y)
    if isinstance(geom, Polygon):
        rings = geom.rings()
        parts = [header, struct.pack("<I", len(rings))]
        parts.extend(map(_pack_line, rings))
        return b"".join(parts)
    if isinstance(geom, LineString):
        return header + _pack_line(geom)
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
        size = 13 + 16 * geom.shell.num_points
        for hole in geom.holes:
            size += 4 + 16 * hole.num_points
        return size
    if isinstance(geom, LineString):
        return 9 + 16 * geom.num_points
    if isinstance(geom, Point):
        return 21
    if isinstance(geom, GeometryCollection):
        return 9 + sum(map(encoded_size, geom))
    raise TypeError(f"cannot encode geometry type {geom.geom_type}")


# --------------------------------------------------------------------------- #
# decoding
# --------------------------------------------------------------------------- #
# Every count in a payload is untrusted: it is checked against *end*, the
# bytes the geometry may use, before anything is unpacked or allocated.
def _read_count(data, offset: int, end: int, endian: str) -> Tuple[int, int]:
    if offset + 4 > end:
        raise WKBParseError("truncated WKB payload")
    return struct.unpack_from(f"{endian}I", data, offset)[0], offset + 4


def _read_line(cls, data, offset: int, end: int, endian: str, envelope=None):
    """One coordinate run (a linestring body or a ring) as a *cls* over the
    flat tuple a single ``unpack_from`` returns, and the offset past it."""
    n, offset = _read_count(data, offset, end, endian)
    stop = offset + 16 * n
    if stop > end:
        raise WKBParseError("truncated WKB payload")
    try:
        return cls.from_run(struct.unpack_from(f"{endian}{2 * n}d", data, offset), envelope), stop
    except ValueError as exc:  # too few (distinct) coordinates
        raise WKBParseError(str(exc)) from exc


def _read_geometry(data, offset: int, end: int, envelope=None) -> Tuple[Geometry, int]:
    """``(geometry, offset past it)``; each geometry, nested members
    included, carries its own byte-order flag."""
    if offset + 5 > end:
        raise WKBParseError("truncated WKB payload")
    order = data[offset]
    if order > 1:
        raise WKBParseError(f"invalid WKB byte-order flag {order} at offset {offset}")
    endian = "<" if order else ">"
    (code,) = struct.unpack_from(f"{endian}I", data, offset + 1)
    offset += 5
    if code == _POINT:
        if offset + 16 > end:
            raise WKBParseError("truncated WKB payload")
        x, y = struct.unpack_from(f"{endian}dd", data, offset)
        return Point(x, y), offset + 16
    if code == _LINESTRING:
        return _read_line(LineString, data, offset, end, endian, envelope)
    if code != _POLYGON and code not in _COLLECTIONS:
        raise WKBParseError(f"unknown WKB geometry code {code}")
    n, offset = _read_count(data, offset, end, endian)
    if code == _POLYGON:
        if n == 0:
            raise WKBParseError("polygon without rings")
        shell, offset = _read_line(LinearRing, data, offset, end, endian, envelope)
        holes = []  # they derive their envelopes: only the shell's can be the record's
        for _ in range(n - 1):
            hole, offset = _read_line(LinearRing, data, offset, end, endian)
            holes.append(hole)
        return Polygon(shell, holes), offset
    members: List[Geometry] = []
    for _ in range(n):
        member, offset = _read_geometry(data, offset, end)
        members.append(member)
    try:
        return _COLLECTIONS[code](members), offset
    except TypeError as exc:  # e.g. a linestring inside a MULTIPOINT
        raise WKBParseError(str(exc)) from exc


def loads(data, offset: int = 0, end: Optional[int] = None, envelope=None) -> Geometry:
    """Decode the WKB geometry at ``data[offset:]`` (from :func:`dumps` or
    PostGIS/GEOS, little- or big-endian) in place, no slice taken; malformed
    input raises :class:`WKBParseError`.

    With *end* the geometry must fill ``data[offset:end]`` exactly — a framed
    record whose WKB stops short of its declared length is malformed; a bare
    ``loads(data)`` stays lenient about bytes after the geometry.  *envelope*
    is the MBR ``(minx, miny, maxx, maxy)`` the caller already holds (a store
    page's column): a line or a polygon's shell takes it as is instead of
    deriving it, and nothing is built from it where there is neither.
    """
    if end is None:
        return _read_geometry(data, offset, len(data), envelope)[0]
    geom, stop = _read_geometry(data, offset, min(end, len(data)), envelope)
    if stop != end:
        raise WKBParseError(f"{end - stop} surplus bytes: geometry ends at {stop}, frame at {end}")
    return geom
