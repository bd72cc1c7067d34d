"""The per-vertex WKB codec, kept verbatim as a test oracle.

This is the ``dumps`` / ``loads`` pair ``repro.geometry.wkb`` shipped before
the ring-at-a-time codec replaced it (``_pack_coords`` ... ``loads``, byte for
byte): one ``struct.pack`` per vertex on encode, one ``struct.unpack_from``
per vertex on decode.  It exists only so ``test_wkb.py`` can assert that the
new codec writes the same bytes and builds the same geometries; nothing under
``src/`` may import it.  Its ring reader is little-endian only (the bug the
new reader fixes), so differential decoding feeds it NDR input.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

from repro.geometry.base import Geometry
from repro.geometry.linestring import LineString
from repro.geometry.multi import GeometryCollection, MultiLineString, MultiPoint, MultiPolygon
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.wkb import GEOM_TYPE_CODES, WKBParseError

Coord = Tuple[float, float]

__all__ = ["dumps", "loads"]

_CODE_TO_TYPE = {v: k for k, v in GEOM_TYPE_CODES.items()}

_LE = 1  # little-endian flag byte


# --------------------------------------------------------------------------- #
# encoding
# --------------------------------------------------------------------------- #
def _pack_coords(coords: Sequence[Coord]) -> bytes:
    out = [struct.pack("<I", len(coords))]
    for x, y in coords:
        out.append(struct.pack("<dd", x, y))
    return b"".join(out)


def _pack_ring_list(rings: Sequence[Sequence[Coord]]) -> bytes:
    out = [struct.pack("<I", len(rings))]
    for ring in rings:
        out.append(_pack_coords(ring))
    return b"".join(out)


def dumps(geom: Geometry) -> bytes:
    """Serialise *geom* to little-endian WKB."""
    header = struct.pack("<bI", _LE, GEOM_TYPE_CODES[geom.geom_type])
    if isinstance(geom, Point):
        return header + struct.pack("<dd", geom.x, geom.y)
    if isinstance(geom, Polygon):
        rings = [r.coords for r in geom.rings()]
        return header + _pack_ring_list(rings)
    if isinstance(geom, LineString):
        return header + _pack_coords(geom.coords)
    if isinstance(geom, (MultiPoint, MultiLineString, MultiPolygon, GeometryCollection)):
        parts = [struct.pack("<I", len(geom))]
        for g in geom:
            parts.append(dumps(g))
        return header + b"".join(parts)
    raise TypeError(f"cannot encode geometry type {geom.geom_type}")


# --------------------------------------------------------------------------- #
# decoding
# --------------------------------------------------------------------------- #
class _Reader:
    def __init__(self, data: bytes, offset: int = 0) -> None:
        self.data = data
        self.offset = offset

    def read(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.offset + size > len(self.data):
            raise WKBParseError("truncated WKB payload")
        values = struct.unpack_from(fmt, self.data, self.offset)
        self.offset += size
        return values

    def read_coords(self) -> List[Coord]:
        (n,) = self.read("<I")
        coords: List[Coord] = []
        for _ in range(n):
            x, y = self.read("<dd")
            coords.append((x, y))
        return coords

    def read_geometry(self) -> Geometry:
        (byte_order,) = self.read("<b")
        endian = "<" if byte_order == _LE else ">"
        (code,) = self.read(f"{endian}I")
        gtype = _CODE_TO_TYPE.get(code)
        if gtype is None:
            raise WKBParseError(f"unknown WKB geometry code {code}")
        if gtype == "Point":
            x, y = self.read(f"{endian}dd")
            return Point(x, y)
        if gtype == "LineString":
            return LineString(self.read_coords())
        if gtype == "Polygon":
            (nrings,) = self.read(f"{endian}I")
            rings = [self.read_coords() for _ in range(nrings)]
            return Polygon(rings[0], rings[1:])
        # multi / collection types recurse into full WKB members
        (n,) = self.read(f"{endian}I")
        members = [self.read_geometry() for _ in range(n)]
        if gtype == "MultiPoint":
            return MultiPoint(members)  # type: ignore[arg-type]
        if gtype == "MultiLineString":
            return MultiLineString(members)  # type: ignore[arg-type]
        if gtype == "MultiPolygon":
            return MultiPolygon(members)  # type: ignore[arg-type]
        return GeometryCollection(members)


def loads(data: bytes) -> Geometry:
    """Decode a WKB byte string produced by :func:`dumps` (or PostGIS/GEOS)."""
    reader = _Reader(data)
    geom = reader.read_geometry()
    return geom
