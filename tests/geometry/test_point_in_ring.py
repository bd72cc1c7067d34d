"""The fused ``point_in_ring`` loop against the retired one.

``algorithms.point_in_ring`` inlines ``point_on_segment`` (``orientation``'s
cross product, then ``on_segment``'s padded range) into its ray-casting loop.
``_point_in_ring_reference.py`` keeps the four retired functions verbatim;
every answer must be the same, including where floats are awkward: ±0.0
(``min`` / ``max`` ties), ±inf and NaN (the collinear band and the crossing
test), open and closed rings, and rings too short to enclose anything.
"""

import math

import _point_in_ring_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import LinearRing, algorithms

lattice = st.integers(-3, 3).map(float)
uniform = st.floats(min_value=-10, max_value=10)
special = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-12, -1e-12, 5e-13, 1e308, -1e308, 5e-324]
)
anything = st.floats(allow_nan=True, allow_infinity=True)
value = st.one_of(lattice, uniform, special, anything)
coord = st.tuples(value, value)
lattice_coord = st.tuples(lattice, lattice)
zero = st.sampled_from([0.0, -0.0])
unit = st.sampled_from([0.0, -0.0, 1.0, -1.0])


def assert_same(pt, ring):
    for form in (ring, tuple(ring)):
        assert algorithms.point_in_ring(pt, form) == reference.point_in_ring(pt, form), (pt, ring)


@st.composite
def rings(draw, coords=coord):
    """Open or closed rings of 0-9 coordinates; a closed one repeats its first
    coordinate as the same object or as an equal copy."""
    ring = draw(st.lists(coords, max_size=9))
    if ring and draw(st.booleans()):
        ring.append(ring[0] if draw(st.booleans()) else tuple(ring[0]))
    return ring


#: nudges of the order of the collinear band and the range padding (1e-12)
nudge = st.sampled_from([0.0, 0.0, 1e-12, -1e-12, 5e-13, -5e-13, 2e-12, -2e-12, 1e-11, -1e-11])


@st.composite
def on_the_boundary(draw, coords=coord):
    """A ring of at least two coordinates and a point on it, or nudged off it
    by about the band: a vertex, or a point along an edge at an exactly
    representable fraction."""
    ring = draw(rings(coords).filter(lambda r: len(r) >= 2))
    i = draw(st.integers(0, len(ring) - 1))
    (ax, ay), (bx, by) = ring[i], ring[(i + 1) % len(ring)]
    t = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    return (ax + t * (bx - ax) + draw(nudge), ay + t * (by - ay) + draw(nudge)), ring


class TestAgainstRetiredLoop:
    @settings(max_examples=400, deadline=None)
    @given(st.tuples(lattice, lattice), rings(lattice_coord))
    def test_lattice(self, pt, ring):
        assert_same(pt, ring)

    @settings(max_examples=400, deadline=None)
    @given(coord, rings())
    def test_any_floats(self, pt, ring):
        assert_same(pt, ring)

    @settings(max_examples=300, deadline=None)
    @given(on_the_boundary(lattice_coord))
    def test_on_lattice_vertices_and_edges(self, case):
        assert_same(*case)

    @settings(max_examples=300, deadline=None)
    @given(on_the_boundary())
    def test_on_vertices_and_edges(self, case):
        assert_same(*case)

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(zero, zero), rings(st.tuples(unit, unit)))
    def test_signed_zeros(self, pt, ring):
        assert_same(pt, ring)

    @pytest.mark.parametrize(
        "pt",
        [(0.5, 0.5), (0.0, 0.0), (-0.0, 1.0), (1.0, 0.5), (2.0, 0.5), (math.nan, 0.5),
         (0.5, math.nan), (math.inf, 0.5), (-math.inf, 0.5), (0.5, math.inf)],
    )
    @pytest.mark.parametrize(
        "ring",
        [
            [],
            [(0.0, 0.0)],
            [(0.0, 0.0), (1.0, 1.0)],
            [(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)],
            [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)],
            [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)],
            [(0.0, 0.0), (math.inf, 0.0), (0.0, 1.0)],
            [(0.0, 0.0), (1.0, math.nan), (1.0, 1.0), (0.0, 1.0)],
            [(-0.0, -0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
        ],
    )
    def test_table(self, pt, ring):
        assert_same(pt, ring)

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(uniform, uniform), st.lists(st.tuples(uniform, uniform), min_size=3, max_size=9))
    def test_through_linear_ring(self, pt, coords):
        try:
            ring = LinearRing(coords)
        except ValueError:
            return
        assert ring.contains_point(*pt) == reference.point_in_ring(pt, ring.coords)
