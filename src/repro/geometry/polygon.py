"""Polygon geometry (shell plus optional holes)."""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

from . import algorithms
from .base import Geometry
from .envelope import Envelope
from .linestring import LinearRing

Coord = Tuple[float, float]

__all__ = ["Polygon"]


class Polygon(Geometry):
    """A polygon with an exterior shell and zero or more interior holes.

    WKT example from the paper: ``POLYGON ((30 10, 40 40, 20 40, 30 10))``.
    Large OSM polygons can exceed 100 K vertices; nothing in this class
    assumes small rings.
    """

    __slots__ = ("shell", "holes", "_envelope")

    geom_type = "Polygon"

    def __init__(
        self,
        shell: Sequence[Coord] | LinearRing,
        holes: Optional[Iterable[Sequence[Coord] | LinearRing]] = None,
        userdata: Any = None,
    ) -> None:
        super().__init__(userdata)
        self.shell = shell if isinstance(shell, LinearRing) else LinearRing(shell)
        self.holes: Tuple[LinearRing, ...] = tuple(
            h if isinstance(h, LinearRing) else LinearRing(h) for h in holes
        ) if holes else ()
        self._envelope = self.shell.envelope

    # ------------------------------------------------------------------ #
    @property
    def envelope(self) -> Envelope:
        return self._envelope

    @property
    def is_empty(self) -> bool:
        return False

    @property
    def num_points(self) -> int:
        return self.shell.num_points + sum(h.num_points for h in self.holes)

    @property
    def area(self) -> float:
        """Shell area minus hole areas."""
        return self.shell.area - sum(h.area for h in self.holes)

    @property
    def length(self) -> float:
        """Total boundary length (shell + holes)."""
        return self.shell.length + sum(h.length for h in self.holes)

    # ------------------------------------------------------------------ #
    def contains_point(self, x: float, y: float) -> bool:
        """Point-in-polygon respecting holes (boundary counts as inside)."""
        if not self.shell.contains_point(x, y):
            return False
        pt = (x, y)
        for hole in self.holes:
            if algorithms.point_on_ring(pt, hole.coords):
                return True  # the hole boundary belongs to the polygon
            if hole.contains_point(x, y):
                return False
        return True

    def rings(self) -> List[LinearRing]:
        """Shell followed by holes."""
        return [self.shell, *self.holes]

    def wkt(self) -> str:
        from .wkt import format_coords

        parts = [f"({format_coords(self.shell.coords)})"]
        parts.extend(f"({format_coords(h.coords)})" for h in self.holes)
        return f"POLYGON ({', '.join(parts)})"

    # ------------------------------------------------------------------ #
    @staticmethod
    def box(minx: float, miny: float, maxx: float, maxy: float, userdata: Any = None) -> "Polygon":
        """Axis-aligned rectangular polygon (handy for cells and queries)."""
        return Polygon(
            [(minx, miny), (maxx, miny), (maxx, maxy), (minx, maxy), (minx, miny)],
            userdata=userdata,
        )

    @staticmethod
    def from_envelope(env: Envelope, userdata: Any = None) -> "Polygon":
        if env.is_empty:
            raise ValueError("cannot build a polygon from an empty envelope")
        return Polygon.box(env.minx, env.miny, env.maxx, env.maxy, userdata=userdata)
