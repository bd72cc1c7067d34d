"""Geometry base class.

The class hierarchy mirrors the OGC Simple Features model that GEOS exposes:
``Point``, ``LineString``, ``Polygon`` and the Multi* collections.  Each
geometry carries an optional ``userdata`` field, matching the paper's use of
the GEOS ``Geometry`` userdata slot to hold the non-spatial attributes parsed
from the source record.

``Geometry`` is a plain class, not an ``abc.ABC``: every refine predicate,
planner check and wire-size check dispatches with ``isinstance`` against a
geometry class, and under ``ABCMeta`` each such check runs
``ABCMeta.__instancecheck__`` — about three times the cost of the plain type
check, paid per refined record.  The protocol is kept by the subclasses, not
enforced at instantiation.
"""

from __future__ import annotations

from typing import Any

__all__ = ["Geometry"]


class Geometry:
    """Base class for all geometry types.

    Every subclass provides the core protocol:

    * ``envelope`` (property) — the minimum bounding rectangle, an
      :class:`~repro.geometry.envelope.Envelope`;
    * ``is_empty`` (property) — true for geometries with no coordinates;
    * ``num_points`` (property) — the total number of coordinates;
    * ``wkt()`` — the Well-Known Text representation.
    """

    __slots__ = ("userdata",)

    #: OGC geometry-type name (``"Point"``, ``"Polygon"``, ...)
    geom_type: str = "Geometry"

    def __init__(self, userdata: Any = None) -> None:
        self.userdata = userdata

    # ------------------------------------------------------------------ #
    # predicates (dispatched through repro.geometry.predicates)
    # ------------------------------------------------------------------ #
    def intersects(self, other: "Geometry") -> bool:
        """True when the geometries share at least one point."""
        from . import predicates

        return predicates.intersects(self, other)

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
