"""Axis-aligned bounding rectangles (minimum bounding rectangles, MBRs).

The envelope is the workhorse of the filter phase of filter-and-refine: the
paper's ``MPI_RECT`` spatial datatype is exactly four doubles
``(minx, miny, maxx, maxy)`` and the ``MPI_UNION`` reduction operator is the
geometric union of envelopes (used to derive the global grid extent from the
per-rank local extents).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

__all__ = ["Envelope"]


@dataclass(frozen=True)
class Envelope:
    """An immutable 2-D axis-aligned rectangle.

    An *empty* envelope (``Envelope.empty()``) is the identity element for
    :meth:`union` and intersects nothing.  This mirrors GEOS's null envelope
    and lets ``MPI_UNION`` reductions start from a well-defined zero value.
    """

    minx: float = math.inf
    miny: float = math.inf
    maxx: float = -math.inf
    maxy: float = -math.inf

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def empty() -> "Envelope":
        """Return the empty envelope (identity for union)."""
        return Envelope()

    @staticmethod
    def of_point(x: float, y: float) -> "Envelope":
        """Envelope of a single point."""
        return Envelope(x, y, x, y)

    @staticmethod
    def from_points(points: Iterable[Tuple[float, float]]) -> "Envelope":
        """Envelope of an iterable of ``(x, y)`` pairs."""
        minx = miny = math.inf
        maxx = maxy = -math.inf
        for x, y in points:
            if x < minx:
                minx = x
            if x > maxx:
                maxx = x
            if y < miny:
                miny = y
            if y > maxy:
                maxy = y
        return Envelope(minx, miny, maxx, maxy)

    @staticmethod
    def from_bounds(minx: float, miny: float, maxx: float, maxy: float) -> "Envelope":
        """Construct from explicit bounds, normalising inverted extents."""
        if minx > maxx or miny > maxy:
            return Envelope.empty()
        return Envelope(minx, miny, maxx, maxy)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def is_empty(self) -> bool:
        return self.minx > self.maxx or self.miny > self.maxy

    @property
    def width(self) -> float:
        return 0.0 if self.is_empty else self.maxx - self.minx

    @property
    def height(self) -> float:
        return 0.0 if self.is_empty else self.maxy - self.miny

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def perimeter(self) -> float:
        return 0.0 if self.is_empty else 2.0 * (self.width + self.height)

    @property
    def centre(self) -> Tuple[float, float]:
        if self.is_empty:
            raise ValueError("empty envelope has no centre")
        return ((self.minx + self.maxx) / 2.0, (self.miny + self.maxy) / 2.0)

    # alias matching GEOS naming
    center = centre

    def as_tuple(self) -> Tuple[float, float, float, float]:
        """Return ``(minx, miny, maxx, maxy)``."""
        return (self.minx, self.miny, self.maxx, self.maxy)

    def __iter__(self) -> Iterator[float]:
        return iter(self.as_tuple())

    # ------------------------------------------------------------------ #
    # predicates
    # ------------------------------------------------------------------ #
    def intersects(self, other: "Envelope") -> bool:
        """True when the two rectangles share any point (boundaries count)."""
        if self.is_empty or other.is_empty:
            return False
        return not (
            other.minx > self.maxx
            or other.maxx < self.minx
            or other.miny > self.maxy
            or other.maxy < self.miny
        )

    def contains(self, other: "Envelope") -> bool:
        """True when *other* lies entirely inside this envelope."""
        if self.is_empty or other.is_empty:
            return False
        return (
            other.minx >= self.minx
            and other.maxx <= self.maxx
            and other.miny >= self.miny
            and other.maxy <= self.maxy
        )

    def contains_point(self, x: float, y: float) -> bool:
        if self.is_empty:
            return False
        return self.minx <= x <= self.maxx and self.miny <= y <= self.maxy

    # ------------------------------------------------------------------ #
    # set operations
    # ------------------------------------------------------------------ #
    def union(self, other: "Envelope") -> "Envelope":
        """Smallest envelope containing both inputs."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Envelope(
            min(self.minx, other.minx),
            min(self.miny, other.miny),
            max(self.maxx, other.maxx),
            max(self.maxy, other.maxy),
        )

    def intersection(self, other: "Envelope") -> "Envelope":
        """Overlap rectangle, or the empty envelope when disjoint."""
        if not self.intersects(other):
            return Envelope.empty()
        return Envelope(
            max(self.minx, other.minx),
            max(self.miny, other.miny),
            min(self.maxx, other.maxx),
            min(self.maxy, other.maxy),
        )

    def buffer(self, distance: float) -> "Envelope":
        """Return a new envelope grown (or shrunk) by *distance* on all sides."""
        if self.is_empty:
            return self
        return Envelope.from_bounds(
            self.minx - distance,
            self.miny - distance,
            self.maxx + distance,
            self.maxy + distance,
        )

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def distance(self, other: "Envelope") -> float:
        """Minimum distance between the two rectangles (0 when they touch)."""
        if self.is_empty or other.is_empty:
            return math.inf
        dx = 0.0
        if other.minx > self.maxx:
            dx = other.minx - self.maxx
        elif self.minx > other.maxx:
            dx = self.minx - other.maxx
        dy = 0.0
        if other.miny > self.maxy:
            dy = other.miny - self.maxy
        elif self.miny > other.maxy:
            dy = self.miny - other.maxy
        return math.hypot(dx, dy)

    # ------------------------------------------------------------------ #
    # serialisation helpers (used by MPI_RECT / binary datasets)
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_doubles(values: Sequence[float]) -> "Envelope":
        if len(values) != 4:
            raise ValueError(f"expected 4 doubles, got {len(values)}")
        return Envelope(float(values[0]), float(values[1]), float(values[2]), float(values[3]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_empty:
            return "Envelope(EMPTY)"
        return f"Envelope({self.minx}, {self.miny}, {self.maxx}, {self.maxy})"
