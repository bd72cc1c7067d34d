"""LineString and LinearRing geometries."""

from __future__ import annotations

import math
from typing import Any, Iterable, List, Optional, Sequence, Tuple

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

    **Pairs or run.**  The vertices are held as the tuple of ``(x, y)`` pairs
    the constructor builds (``_coords``) or, for a line either reader built
    (:mod:`~repro.geometry.wkb` and :mod:`~repro.geometry.wkt`, both through
    :meth:`from_run`), as the interleaved floats ``x0, y0, x1, y1, ...`` they
    parsed (``_run``, one object whatever the vertex count); only the
    constructor builds pairs up front.  At least one is set and
    each is derivable from the other: :attr:`coords` builds the pairs from the
    run on first read and keeps them (idempotent, so rank threads sharing a
    geometry need no lock), :meth:`vertices` iterates either without building
    anything that outlives the loop.
    """

    __slots__ = ("_coords", "_run", "_envelope")

    geom_type = "LineString"
    #: fewest coordinates, and whether an open sequence is closed on the way in
    _MIN_COORDS, _CLOSES = 2, False
    _TOO_FEW = "LineString requires at least 2 coordinates"

    def __init__(self, coords: Sequence[Coord], userdata: Any = None) -> None:
        super().__init__(userdata)
        pts = [(float(x), float(y)) for x, y in coords]  # the one conversion pass
        if self._CLOSES and pts and pts[0] != pts[-1]:
            pts.append(pts[0])
        if len(pts) < self._MIN_COORDS:
            raise ValueError(self._TOO_FEW)
        self._coords: Optional[Tuple[Coord, ...]] = tuple(pts)
        self._run: Optional[Tuple[float, ...]] = None
        self._envelope = Envelope.from_points(pts)

    @classmethod
    def from_run(
        cls, run: Tuple[float, ...], mbr: Optional[Tuple[float, float, float, float]] = None
    ) -> "LineString":
        """Build from an interleaved float run (what the WKB and WKT readers
        parse) with the constructor's validation and no per-vertex object.
        *mbr*, ``(minx, miny, maxx, maxy)`` when the caller already holds it
        (a store page's column), is taken as is; otherwise the envelope is
        derived from the run."""
        if cls._CLOSES and run and (run[0] != run[-2] or run[1] != run[-1]):
            run += run[:2]
        if len(run) < 2 * cls._MIN_COORDS:
            raise ValueError(cls._TOO_FEW)
        self = cls.__new__(cls)
        self.userdata = None
        self._coords = None
        self._run = run
        if mbr is None:
            xs, ys = run[0::2], run[1::2]
            mbr = min(xs), min(ys), max(xs), max(ys)
            if not (mbr[0] <= mbr[2] and mbr[1] <= mbr[3]):
                # a leading NaN poisons min/max; from_points skips NaNs
                mbr = Envelope.from_points(zip(xs, ys)).as_tuple()
        self._envelope = Envelope(*mbr)
        return self

    # ------------------------------------------------------------------ #
    @property
    def coords(self) -> Tuple[Coord, ...]:
        """The ``(x, y)`` pairs, the same tuple on every read."""
        if self._coords is None:
            self._coords = tuple(self.vertices())
        return self._coords

    def vertices(self) -> Iterable[Coord]:
        """The ``(x, y)`` pairs for one pass: :attr:`coords` when they exist,
        else zipped off the run as the loop goes, nothing kept."""
        if self._coords is not None:
            return self._coords
        it = iter(self._run)
        return zip(it, it)

    @property
    def envelope(self) -> Envelope:
        return self._envelope

    @property
    def is_empty(self) -> bool:
        return self.num_points == 0

    @property
    def num_points(self) -> int:
        return len(self._run) // 2 if self._coords is None else len(self._coords)

    @property
    def length(self) -> float:
        total = 0.0
        coords = self.coords
        for (x1, y1), (x2, y2) in zip(coords, coords[1:]):
            total += math.hypot(x2 - x1, y2 - y1)
        return total

    # ------------------------------------------------------------------ #
    def segments(self) -> List[Tuple[Coord, Coord]]:
        """Consecutive coordinate pairs."""
        coords = self.coords
        return list(zip(coords, coords[1:]))

    def wkt(self) -> str:
        from .wkt import format_coords

        return f"LINESTRING ({format_coords(self.coords)})"


class LinearRing(LineString):
    """A closed LineString used as a polygon boundary.

    The constructor closes the ring automatically when the caller did not
    repeat the first coordinate, and validates a minimum of three distinct
    vertices — on the pairs it is given or, in :meth:`from_run`, on the floats
    of the run (see *Pairs or run* on :class:`LineString`), building nothing.
    """

    __slots__ = ()

    geom_type = "LinearRing"

    _MIN_COORDS, _CLOSES = 4, True  # 3 distinct + the closing coordinate
    _TOO_FEW = "LinearRing requires at least 3 distinct coordinates"

    @property
    def signed_area(self) -> float:
        return algorithms.ring_signed_area(self.coords)

    @property
    def area(self) -> float:
        return abs(self.signed_area)

    def contains_point(self, x: float, y: float) -> bool:
        """Point-in-ring test (boundary counts as inside)."""
        return algorithms.point_in_ring((x, y), self.coords)
