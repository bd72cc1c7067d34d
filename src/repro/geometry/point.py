"""Point geometry."""

from __future__ import annotations

import math
from typing import Any, Tuple

from .base import Geometry
from .envelope import Envelope

__all__ = ["Point"]


class Point(Geometry):
    """A single 2-D coordinate.

    The paper's ``MPI_POINT`` derived datatype is two doubles; this class is
    the in-memory counterpart produced by the parsers and consumed by the
    spatial reduction operators.
    """

    __slots__ = ("x", "y")

    geom_type = "Point"

    def __init__(self, x: float, y: float, userdata: Any = None) -> None:
        super().__init__(userdata)
        self.x = float(x)
        self.y = float(y)

    # ------------------------------------------------------------------ #
    @property
    def coords(self) -> Tuple[Tuple[float, float], ...]:
        return ((self.x, self.y),)

    @property
    def coord(self) -> Tuple[float, float]:
        return (self.x, self.y)

    @property
    def envelope(self) -> Envelope:
        return Envelope.of_point(self.x, self.y)

    @property
    def is_empty(self) -> bool:
        return False

    @property
    def num_points(self) -> int:
        return 1

    @property
    def centroid(self) -> Tuple[float, float]:
        return (self.x, self.y)

    # ------------------------------------------------------------------ #
    def wkt(self) -> str:
        from .wkt import format_coord

        return f"POINT ({format_coord((self.x, self.y))})"

    def distance_to_point(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)
