"""Tests for the Envelope (MBR) type."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Envelope

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def env_strategy():
    return st.tuples(finite, finite, finite, finite).map(
        lambda t: Envelope(min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]), max(t[1], t[3]))
    )


class TestConstruction:
    def test_empty(self):
        e = Envelope.empty()
        assert e.is_empty
        assert e.area == 0.0
        assert e.width == 0.0 and e.height == 0.0

    def test_of_point(self):
        e = Envelope.of_point(3.0, 4.0)
        assert not e.is_empty
        assert e.as_tuple() == (3.0, 4.0, 3.0, 4.0)
        assert e.area == 0.0

    def test_from_points(self):
        e = Envelope.from_points([(0, 0), (2, 5), (-1, 3)])
        assert e.as_tuple() == (-1, 0, 2, 5)

    def test_from_bounds_inverted_gives_empty(self):
        assert Envelope.from_bounds(5, 0, 1, 1).is_empty

    def test_from_doubles_roundtrip(self):
        e = Envelope(1, 2, 3, 4)
        assert Envelope.from_doubles(e.as_tuple()) == e

    def test_from_doubles_wrong_arity(self):
        with pytest.raises(ValueError):
            Envelope.from_doubles([1, 2, 3])

    def test_iter_yields_bounds(self):
        assert list(Envelope(1, 2, 3, 4)) == [1, 2, 3, 4]


class TestPredicates:
    def test_intersects_overlapping(self):
        assert Envelope(0, 0, 2, 2).intersects(Envelope(1, 1, 3, 3))

    def test_intersects_touching_edge(self):
        assert Envelope(0, 0, 1, 1).intersects(Envelope(1, 0, 2, 1))

    def test_disjoint(self):
        a, b = Envelope(0, 0, 1, 1), Envelope(2, 2, 3, 3)
        assert not a.intersects(b)

    def test_empty_never_intersects(self):
        assert not Envelope.empty().intersects(Envelope(0, 0, 1, 1))
        assert not Envelope(0, 0, 1, 1).intersects(Envelope.empty())

    def test_contains(self):
        assert Envelope(0, 0, 10, 10).contains(Envelope(1, 1, 2, 2))
        assert not Envelope(1, 1, 2, 2).contains(Envelope(0, 0, 10, 10))

    def test_contains_point(self):
        e = Envelope(0, 0, 1, 1)
        assert e.contains_point(0.5, 0.5)
        assert e.contains_point(0, 0)  # boundary
        assert not e.contains_point(2, 0.5)


class TestSetOps:
    def test_union(self):
        u = Envelope(0, 0, 1, 1).union(Envelope(2, 2, 3, 3))
        assert u.as_tuple() == (0, 0, 3, 3)

    def test_union_with_empty_is_identity(self):
        e = Envelope(1, 2, 3, 4)
        assert e.union(Envelope.empty()) == e
        assert Envelope.empty().union(e) == e

    def test_intersection(self):
        i = Envelope(0, 0, 2, 2).intersection(Envelope(1, 1, 3, 3))
        assert i.as_tuple() == (1, 1, 2, 2)

    def test_intersection_disjoint_is_empty(self):
        assert Envelope(0, 0, 1, 1).intersection(Envelope(5, 5, 6, 6)).is_empty

    def test_buffer(self):
        assert Envelope(0, 0, 1, 1).buffer(1).as_tuple() == (-1, -1, 2, 2)

    def test_buffer_collapse_to_empty(self):
        assert Envelope(0, 0, 1, 1).buffer(-1).is_empty


class TestMetrics:
    def test_distance_disjoint(self):
        d = Envelope(0, 0, 1, 1).distance(Envelope(4, 5, 6, 6))
        assert d == pytest.approx(math.hypot(3, 4))

    def test_distance_touching_is_zero(self):
        assert Envelope(0, 0, 1, 1).distance(Envelope(1, 1, 2, 2)) == 0.0

    def test_centre(self):
        assert Envelope(0, 0, 2, 4).centre == (1, 2)

    def test_centre_of_empty_raises(self):
        with pytest.raises(ValueError):
            Envelope.empty().centre


class TestProperties:
    @given(env_strategy(), env_strategy())
    def test_union_is_commutative(self, a, b):
        assert a.union(b) == b.union(a)

    @given(env_strategy(), env_strategy(), env_strategy())
    def test_union_is_associative(self, a, b, c):
        assert a.union(b).union(c) == a.union(b.union(c))

    @given(env_strategy(), env_strategy())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains(a) and u.contains(b)

    @given(env_strategy(), env_strategy())
    def test_intersection_symmetric_and_contained(self, a, b):
        i = a.intersection(b)
        assert i == b.intersection(a)
        if not i.is_empty:
            assert a.contains(i) and b.contains(i)

    @given(env_strategy(), env_strategy())
    def test_intersects_iff_nonempty_intersection(self, a, b):
        assert a.intersects(b) == (not a.intersection(b).is_empty)

    @given(env_strategy())
    def test_union_with_self_is_identity(self, a):
        assert a.union(a) == a
