"""Multi-part geometries and geometry collections."""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from .base import Geometry
from .envelope import Envelope
from .linestring import LineString
from .point import Point
from .polygon import Polygon

__all__ = [
    "GeometryCollection",
    "MultiPoint",
    "MultiLineString",
    "MultiPolygon",
]


class GeometryCollection(Geometry):
    """Heterogeneous collection of geometries."""

    __slots__ = ("geoms", "_envelope")

    geom_type = "GeometryCollection"
    _member_type: type = Geometry

    def __init__(self, geoms: Iterable[Geometry] = ()) -> None:
        super().__init__()
        members: List[Geometry] = []
        for g in geoms:
            if not isinstance(g, self._member_type):
                raise TypeError(
                    f"{self.geom_type} members must be {self._member_type.__name__}, "
                    f"got {type(g).__name__}"
                )
            members.append(g)
        self.geoms: Tuple[Geometry, ...] = tuple(members)
        env = Envelope.empty()
        for g in self.geoms:
            env = env.union(g.envelope)
        self._envelope = env

    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Geometry]:
        return iter(self.geoms)

    def __len__(self) -> int:
        return len(self.geoms)

    def __getitem__(self, idx: int) -> Geometry:
        return self.geoms[idx]

    @property
    def envelope(self) -> Envelope:
        return self._envelope

    @property
    def is_empty(self) -> bool:
        return len(self.geoms) == 0

    @property
    def num_points(self) -> int:
        return sum(g.num_points for g in self.geoms)

    @property
    def area(self) -> float:
        return sum(g.area for g in self.geoms)

    @property
    def length(self) -> float:
        return sum(g.length for g in self.geoms)

    def wkt(self) -> str:
        if self.is_empty:
            return "GEOMETRYCOLLECTION EMPTY"
        inner = ", ".join(g.wkt() for g in self.geoms)
        return f"GEOMETRYCOLLECTION ({inner})"


class MultiPoint(GeometryCollection):
    """Collection of points."""

    __slots__ = ()
    geom_type = "MultiPoint"
    _member_type = Point

    def wkt(self) -> str:
        from .wkt import format_coord

        if self.is_empty:
            return "MULTIPOINT EMPTY"
        inner = ", ".join(f"({format_coord(p.coord)})" for p in self.geoms)  # type: ignore[attr-defined]
        return f"MULTIPOINT ({inner})"


class MultiLineString(GeometryCollection):
    """Collection of linestrings."""

    __slots__ = ()
    geom_type = "MultiLineString"
    _member_type = LineString

    def wkt(self) -> str:
        from .wkt import format_coords

        if self.is_empty:
            return "MULTILINESTRING EMPTY"
        inner = ", ".join(f"({format_coords(ls.coords)})" for ls in self.geoms)  # type: ignore[attr-defined]
        return f"MULTILINESTRING ({inner})"


class MultiPolygon(GeometryCollection):
    """Collection of polygons (how OSM represents e.g. lake systems)."""

    __slots__ = ()
    geom_type = "MultiPolygon"
    _member_type = Polygon

    def wkt(self) -> str:
        from .wkt import format_coords

        if self.is_empty:
            return "MULTIPOLYGON EMPTY"
        polys = []
        for poly in self.geoms:
            assert isinstance(poly, Polygon)
            rings = [f"({format_coords(poly.shell.coords)})"]
            rings.extend(f"({format_coords(h.coords)})" for h in poly.holes)
            polys.append(f"({', '.join(rings)})")
        return f"MULTIPOLYGON ({', '.join(polys)})"
