"""The geometry classes are plain classes, and predicate dispatch still
follows the class hierarchy.

Every refine predicate, planner check and wire-size check is an
``isinstance`` against a geometry class.  Under ``ABCMeta`` each runs
``ABCMeta.__instancecheck__`` (see ``repro/geometry/base.py``), so no class
in ``repro.geometry`` may have it as its metaclass.  Dispatch must still see
a ``LinearRing`` as a ``LineString`` and the Multi* types as a
``GeometryCollection``.
"""

import inspect
import pkgutil
from abc import ABCMeta
from importlib import import_module

import pytest

import repro.geometry
from repro.geometry import (
    Envelope,
    GeometryCollection,
    LinearRing,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    predicates,
)


def geometry_classes():
    for info in pkgutil.iter_modules(repro.geometry.__path__):
        module = import_module(f"repro.geometry.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield cls


def test_no_geometry_class_has_abcmeta_as_its_metaclass():
    classes = list(geometry_classes())
    assert {Point, LineString, LinearRing, Polygon, MultiPolygon} <= set(classes)
    assert [cls for cls in classes if isinstance(cls, ABCMeta)] == []


SQUARE = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)]

OTHERS = [
    Point(2.0, 0.0),  # on the ring
    Point(2.0, 2.0),  # inside the ring, not on it
    Point(9.0, 9.0),
    LineString([(-1.0, 2.0), (1.0, 2.0)]),  # crosses one side
    LineString([(1.0, 1.0), (3.0, 3.0)]),  # inside, touches nothing
    Polygon([(3.0, 3.0), (6.0, 3.0), (6.0, 6.0), (3.0, 6.0)]),  # overlaps a corner
    Polygon([(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)]),  # inside the ring
    Envelope(1.0, 1.0, 3.0, 3.0),  # a window inside the ring
    Envelope(3.0, -1.0, 5.0, 1.0),  # a window over one corner
]


@pytest.mark.parametrize("other", OTHERS, ids=repr)
def test_a_linear_ring_dispatches_as_a_linestring(other):
    ring, path = LinearRing(SQUARE), LineString(SQUARE)
    assert predicates.intersects(ring, other) == predicates.intersects(path, other)
    assert predicates.intersects(other, ring) == predicates.intersects(other, path)


MULTIS = [
    (MultiPoint, [Point(2.0, 0.0), Point(9.0, 9.0)]),
    (MultiLineString, [LineString([(-1.0, 2.0), (1.0, 2.0)]), LineString([(8.0, 8.0), (9.0, 9.0)])]),
    (MultiPolygon, [Polygon(SQUARE), Polygon([(8.0, 8.0), (9.0, 8.0), (9.0, 9.0)])]),
]


@pytest.mark.parametrize("multi, parts", MULTIS, ids=lambda v: getattr(v, "__name__", ""))
@pytest.mark.parametrize("other", OTHERS, ids=repr)
def test_a_multi_geometry_dispatches_as_a_collection(multi, parts, other):
    as_multi, as_collection = multi(parts), GeometryCollection(parts)
    assert predicates.intersects(as_multi, other) == predicates.intersects(as_collection, other)
    assert predicates.intersects(other, as_multi) == predicates.intersects(other, as_collection)
    assert predicates.intersects(as_multi, other) == any(
        predicates.intersects(part, other) for part in parts
    )
