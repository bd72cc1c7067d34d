"""What a WKB decode builds: the in-place, flat-run reader against the
per-vertex oracle.

``wkb.loads`` decodes where the bytes lie (``offset`` / ``end``), takes an
envelope the caller already holds, and leaves a line's or ring's vertices as
the float run ``struct`` returned until ``.coords`` is read.  None of that may
be observable: ``tests/geometry/_wkb_reference.py`` builds every geometry
vertex by vertex through the public constructors, and a decoded geometry must
equal it — as a geometry, in its ``coords``, ``envelope``, ``num_points``,
``encoded_size`` and ``dumps`` bytes, through ``pickle`` and ``deepcopy``,
before and after the pairs are materialised.
"""

import copy
import itertools
import pickle
import struct

import _wkb_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_wkb import (
    ONE_OF_EACH,
    any_geometry,
    coord_value,
    encode,
    holed_polygons,
    nested_collections,
)

from repro.geometry import Envelope, LinearRing, LineString, Point, Polygon, wkb

geometries = st.one_of(any_geometry, holed_polygons, nested_collections)


def _flat(geom):
    """Every coordinate of *geom* in order, as raw bits (NaN-safe, and -0.0
    is not 0.0)."""
    if isinstance(geom, Point):
        values = [geom.x, geom.y]
    elif isinstance(geom, LineString):
        values = [v for pair in geom.coords for v in pair]
    elif isinstance(geom, Polygon):
        return b"|".join(_flat(ring) for ring in geom.rings())
    else:
        return b"/".join(_flat(member) for member in geom)
    return struct.pack(f"<{len(values)}d", *values)


def _lines(geom):
    """The lines and rings inside *geom*."""
    if isinstance(geom, LineString):
        return [geom]
    if isinstance(geom, Polygon):
        return geom.rings()
    if isinstance(geom, Point):
        return []
    return [line for member in geom for line in _lines(member)]


def _pairs_built(geom):
    """Per line of *geom*: have its ``(x, y)`` pairs been materialised?  (Not
    to be called inside an ``assert``: pytest's rewritten asserts repr() the
    values they touch, and a geometry's repr is its WKT — which reads
    ``.coords``.)"""
    return [line._coords is not None for line in _lines(geom)]


def assert_same_as_oracle(decoded, expected):
    """*decoded* came from ``wkb.loads``, *expected* from the constructors."""
    for pairs_built in (False, True):
        state = "after .coords" if pairs_built else "before .coords"
        built = _pairs_built(decoded)
        assert built == [pairs_built] * len(built), state
        # none of these may read decoded's pairs ...
        assert decoded.geom_type == expected.geom_type, state
        assert decoded.num_points == expected.num_points, state
        assert decoded.envelope == expected.envelope, state
        assert wkb.encoded_size(decoded) == wkb.encoded_size(expected), state
        assert wkb.dumps(decoded) == reference.dumps(expected), state
        for clone in (pickle.loads(pickle.dumps(decoded)), copy.deepcopy(decoded)):
            assert clone == expected and hash(clone) == hash(expected), state
            assert clone.envelope == expected.envelope, state
            assert _flat(clone) == _flat(expected), state
        built = _pairs_built(decoded)
        assert built == [pairs_built] * len(built), state
        # ... these do: equality and hash go through the WKT
        assert decoded == expected and expected == decoded, state
        assert hash(decoded) == hash(expected), state
        assert _flat(decoded) == _flat(expected), state
    for line in _lines(decoded):
        assert line.coords is line.coords
        assert list(line.vertices()) == list(line.coords)
        assert all(type(pair) is tuple and len(pair) == 2 for pair in line.coords)


class TestAgainstTheOracle:
    @given(geometries)
    @settings(max_examples=300, deadline=None)
    def test_decode_equals_constructor_built(self, geom):
        data = reference.dumps(geom)
        assert_same_as_oracle(wkb.loads(data), reference.loads(data))

    @pytest.mark.parametrize("geom", ONE_OF_EACH, ids=lambda g: g.geom_type)
    def test_one_of_each(self, geom):
        data = reference.dumps(geom)
        assert_same_as_oracle(wkb.loads(data), reference.loads(data))

    @given(geometries)
    @settings(max_examples=150, deadline=None)
    def test_big_endian_input(self, geom):
        # the oracle's ring reader is little-endian only: it gets the NDR twin
        xdr = encode(geom, itertools.repeat(">"))
        assert_same_as_oracle(wkb.loads(xdr), reference.loads(reference.dumps(geom)))

    @given(st.lists(st.tuples(coord_value, coord_value), min_size=2, max_size=9), st.data())
    @settings(max_examples=200, deadline=None)
    def test_nan_vertex_linestring(self, coords, data):
        nan = float("nan")
        for i in data.draw(st.sets(st.integers(0, 2 * len(coords) - 1), min_size=1, max_size=3)):
            pair = list(coords[i // 2])
            pair[i % 2] = nan
            coords[i // 2] = tuple(pair)
        flat = [v for pair in coords for v in pair]
        raw = struct.pack(f"<bII{len(flat)}d", 1, 2, len(coords), *flat)
        decoded, expected = wkb.loads(raw), reference.loads(raw)
        assert decoded.envelope == expected.envelope
        assert _flat(decoded) == _flat(expected)
        assert wkb.dumps(decoded) == raw == wkb.dumps(expected)
        assert decoded.num_points == expected.num_points == len(coords)
        assert wkb.encoded_size(decoded) == len(raw)

    @given(
        st.lists(
            st.lists(st.tuples(coord_value, coord_value), min_size=3, max_size=7, unique=True),
            min_size=1, max_size=3,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_unclosed_foreign_rings_are_closed_like_the_constructor(self, rings):
        raw = struct.pack("<bII", 1, 3, len(rings))
        for ring in rings:  # written open: first coordinate not repeated
            raw += struct.pack(f"<I{2 * len(ring)}d", len(ring), *[v for p in ring for v in p])
        decoded, expected = wkb.loads(raw), reference.loads(raw)
        assert_same_as_oracle(decoded, expected)  # first: see _pairs_built
        assert [r.num_points for r in decoded.rings()] == [len(r) + 1 for r in rings]


class TestInPlace:
    """``loads(data, offset, end, envelope)``: the framed form."""

    @given(geometries, st.binary(max_size=12), st.binary(max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_decodes_where_the_bytes_lie(self, geom, before, after):
        data = reference.dumps(geom)
        buffer = before + data + after
        start, end = len(before), len(before) + len(data)
        for source in (buffer, memoryview(buffer), bytearray(buffer)):
            assert_same_as_oracle(wkb.loads(source, start, end), reference.loads(data))
        # no end: lenient about what follows, as a bare loads always was
        assert wkb.loads(buffer, start) == reference.loads(data)

    @given(geometries, st.integers(1, 9))
    @settings(max_examples=200, deadline=None)
    def test_end_must_be_where_the_geometry_ends(self, geom, surplus):
        data = reference.dumps(geom)
        padded = data + b"\x00" * surplus
        with pytest.raises(wkb.WKBParseError, match=f"{surplus} surplus bytes"):
            wkb.loads(padded, 0, len(padded))
        assert wkb.loads(padded) == geom  # bare: lenient
        with pytest.raises(wkb.WKBParseError):  # a frame shorter than the geometry
            wkb.loads(padded, 0, len(data) - 1)
        with pytest.raises(wkb.WKBParseError):  # a frame beyond the buffer
            wkb.loads(data, 0, len(data) + surplus)

    @pytest.mark.parametrize("geom", ONE_OF_EACH[1:3], ids=lambda g: g.geom_type)
    @pytest.mark.parametrize("endian", "<>")
    def test_a_handed_envelope_is_taken_as_is(self, geom, endian):
        stored = (-1.0, -2.0, 30.0, 40.0)  # not the derived one: proof it is not re-derived
        data = encode(geom, itertools.repeat(endian))
        decoded = wkb.loads(data, 0, len(data), stored)
        assert decoded.envelope == Envelope(*stored)
        if isinstance(decoded, Polygon):
            assert decoded.shell.envelope is decoded.envelope
            # holes have no stored MBR: they derive theirs
            assert [h.envelope for h in decoded.holes] == [h.envelope for h in geom.holes]
        assert wkb.loads(data).envelope == geom.envelope

    def test_envelope_is_ignored_where_there_is_no_line(self):
        stored = (0.0, 0.0, 1.0, 1.0)
        for geom in (ONE_OF_EACH[0], *ONE_OF_EACH[3:]):
            data = wkb.dumps(geom)
            assert wkb.loads(data, 0, len(data), stored).envelope == geom.envelope


class TestFromRun:
    """The constructor the decoder uses (``LineString.from_xy``'s successor)."""

    def test_same_validation_as_the_constructor(self):
        with pytest.raises(ValueError, match="at least 2 coordinates"):
            LineString.from_run((1.0, 2.0))
        with pytest.raises(ValueError, match="at least 2 coordinates"):
            LineString.from_run(())
        for run in ((), (0.0, 0.0), (0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 1.0, 1.0, 0.0, 0.0)):
            with pytest.raises(ValueError, match="3 distinct"):
                LinearRing.from_run(run)
            with pytest.raises(ValueError, match="3 distinct"):
                LinearRing(list(zip(run[0::2], run[1::2])))

    def test_ring_closure_compares_floats_in_the_run(self):
        closed = LinearRing.from_run((0.0, 0.0, 4.0, 0.0, 4.0, 4.0, 0.0, 0.0))
        opened = LinearRing.from_run((0.0, 0.0, 4.0, 0.0, 4.0, 4.0))
        assert closed == opened == LinearRing([(0, 0), (4, 0), (4, 4)])
        assert closed.num_points == opened.num_points == 4
        # -0.0 closes 0.0, as tuple comparison always said
        assert LinearRing.from_run((0.0, 0.0, 4.0, 0.0, 4.0, 4.0, -0.0, 0.0)).num_points == 4

    def test_measures_work_off_a_run(self):
        ring = LinearRing.from_run((0.0, 0.0, 4.0, 0.0, 4.0, 4.0, 0.0, 4.0, 0.0, 0.0))
        built = LinearRing([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert (ring.area, ring.length, ring.centroid, ring.signed_area) == (
            built.area, built.length, built.centroid, built.signed_area
        )
        assert ring.contains_point(2.0, 2.0) and not ring.contains_point(5.0, 2.0)
        line = LineString.from_run((0.0, 0.0, 3.0, 4.0))
        assert (line.length, line.segments(), line.is_empty) == (5.0, [((0.0, 0.0), (3.0, 4.0))], False)
