"""Abstract geometry base class.

The class hierarchy mirrors the OGC Simple Features model that GEOS exposes:
``Point``, ``LineString``, ``Polygon`` and the Multi* collections.  Each
geometry carries an optional ``userdata`` field, matching the paper's use of
the GEOS ``Geometry`` userdata slot to hold the non-spatial attributes parsed
from the source record.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from .envelope import Envelope

__all__ = ["Geometry"]


class Geometry(ABC):
    """Base class for all geometry types."""

    __slots__ = ("userdata",)

    #: OGC geometry-type name (``"Point"``, ``"Polygon"``, ...)
    geom_type: str = "Geometry"

    def __init__(self, userdata: Any = None) -> None:
        self.userdata = userdata

    # ------------------------------------------------------------------ #
    # core protocol
    # ------------------------------------------------------------------ #
    @property
    @abstractmethod
    def envelope(self) -> Envelope:
        """Minimum bounding rectangle of this geometry."""

    @property
    @abstractmethod
    def is_empty(self) -> bool:
        """True for geometries with no coordinates."""

    @property
    @abstractmethod
    def num_points(self) -> int:
        """Total number of coordinates in the geometry."""

    @abstractmethod
    def wkt(self) -> str:
        """Well-Known Text representation."""

    # convenience aliases ------------------------------------------------
    @property
    def mbr(self) -> Envelope:
        """Alias for :attr:`envelope`, matching the paper's terminology."""
        return self.envelope

    # ------------------------------------------------------------------ #
    # predicates (dispatched through repro.geometry.predicates)
    # ------------------------------------------------------------------ #
    def intersects(self, other: "Geometry") -> bool:
        """True when the geometries share at least one point."""
        from . import predicates

        return predicates.intersects(self, other)

    def contains(self, other: "Geometry") -> bool:
        """True when *other* lies entirely within this geometry."""
        from . import predicates

        return predicates.contains(self, other)

    # ------------------------------------------------------------------ #
    # measures — subclasses override where meaningful
    # ------------------------------------------------------------------ #
    @property
    def area(self) -> float:
        return 0.0

    @property
    def length(self) -> float:
        return 0.0

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        wkt = self.wkt()
        if len(wkt) > 80:
            wkt = wkt[:77] + "..."
        return f"<{self.geom_type} {wkt}>"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Geometry):
            return NotImplemented
        return self.geom_type == other.geom_type and self.wkt() == other.wkt()

    def __hash__(self) -> int:
        return hash((self.geom_type, self.wkt()))
