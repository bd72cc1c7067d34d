"""LineString and LinearRing geometries."""

from __future__ import annotations

import math
from typing import Any, List, Sequence, Tuple

from . import algorithms
from .base import Geometry
from .envelope import Envelope

Coord = Tuple[float, float]

__all__ = ["LineString", "LinearRing"]


class LineString(Geometry):
    """An ordered sequence of at least two coordinates.

    Road-network edges in the paper's 137 GB dataset are LineStrings; their
    vertex counts vary widely, which is exactly the irregularity the
    partitioning layer has to cope with.
    """

    __slots__ = ("_coords", "_envelope")

    geom_type = "LineString"

    def __init__(self, coords: Sequence[Coord], userdata: Any = None) -> None:
        super().__init__(userdata)
        # the one conversion pass, for rings too (they only amend the list)
        pts = self._checked([(float(x), float(y)) for x, y in coords])
        self._coords: Tuple[Coord, ...] = tuple(pts)
        self._envelope = Envelope.from_points(pts)

    @classmethod
    def from_xy(cls, xs: Sequence[float], ys: Sequence[float]) -> "LineString":
        """Build from parallel columns that already hold floats (what a
        binary decoder unpacks): no per-coordinate conversion, and the bounds
        come from the columns at C speed.  Same validation as the
        constructor."""
        self = cls.__new__(cls)
        self.userdata = None
        pts = cls._checked(list(zip(xs, ys)))
        self._coords = tuple(pts)
        minx, miny, maxx, maxy = min(xs), min(ys), max(xs), max(ys)
        if minx <= maxx and miny <= maxy:
            self._envelope = Envelope(minx, miny, maxx, maxy)
        else:
            # a leading NaN poisons min/max; from_points skips NaNs
            self._envelope = Envelope.from_points(pts)
        return self

    @staticmethod
    def _checked(pts: List[Coord]) -> List[Coord]:
        """Validate the converted coordinate list (subclasses may amend it)."""
        if len(pts) < 2:
            raise ValueError("LineString requires at least 2 coordinates")
        return pts

    # ------------------------------------------------------------------ #
    @property
    def coords(self) -> Tuple[Coord, ...]:
        return self._coords

    @property
    def envelope(self) -> Envelope:
        return self._envelope

    @property
    def is_empty(self) -> bool:
        return len(self._coords) == 0

    @property
    def num_points(self) -> int:
        return len(self._coords)

    @property
    def length(self) -> float:
        total = 0.0
        for (x1, y1), (x2, y2) in zip(self._coords, self._coords[1:]):
            total += math.hypot(x2 - x1, y2 - y1)
        return total

    @property
    def centroid(self) -> Coord:
        """Length-weighted centroid of the segments."""
        total_len = 0.0
        cx = cy = 0.0
        for (x1, y1), (x2, y2) in zip(self._coords, self._coords[1:]):
            seg = math.hypot(x2 - x1, y2 - y1)
            total_len += seg
            cx += seg * (x1 + x2) / 2.0
            cy += seg * (y1 + y2) / 2.0
        if total_len == 0.0:
            return self._coords[0]
        return (cx / total_len, cy / total_len)

    @property
    def is_closed(self) -> bool:
        return self._coords[0] == self._coords[-1]

    # ------------------------------------------------------------------ #
    def segments(self) -> List[Tuple[Coord, Coord]]:
        """Consecutive coordinate pairs."""
        return list(zip(self._coords, self._coords[1:]))

    def wkt(self) -> str:
        from .wkt import format_coords

        return f"LINESTRING ({format_coords(self._coords)})"


class LinearRing(LineString):
    """A closed LineString used as a polygon boundary.

    The constructor closes the ring automatically when the caller did not
    repeat the first coordinate, and validates a minimum of three distinct
    vertices.
    """

    __slots__ = ()

    geom_type = "LinearRing"

    @staticmethod
    def _checked(pts: List[Coord]) -> List[Coord]:
        if len(pts) >= 1 and pts[0] != pts[-1]:
            pts.append(pts[0])
        if len(pts) < 4:  # 3 distinct + closing coordinate
            raise ValueError("LinearRing requires at least 3 distinct coordinates")
        return pts

    @property
    def signed_area(self) -> float:
        return algorithms.ring_signed_area(self._coords)

    @property
    def area(self) -> float:
        return abs(self.signed_area)

    @property
    def is_ccw(self) -> bool:
        return algorithms.ring_is_ccw(self._coords)

    @property
    def centroid(self) -> Coord:
        return algorithms.ring_centroid(self._coords)

    def contains_point(self, x: float, y: float) -> bool:
        """Point-in-ring test (boundary counts as inside)."""
        return algorithms.point_in_ring((x, y), self._coords)
