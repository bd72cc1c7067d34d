"""The index loader against the loader it replaced.

``_index_io_reference.load_index_reference`` is the retired ``load_index``,
verbatim: leaf payloads were ``RecordRef`` NamedTuples, the live loader's are
plain ``(page_id, slot)`` pairs (equal to them, but untrackable by the cyclic
collector).  Nothing else may differ.  Random ``dump_index`` streams at node
capacities 2 and 16, and byte-damaged copies of them, go through both; for
each stream the two must raise the same exception class, or load trees with
equal ``len``, ``bounds``, ``stats()``, re-dumped bytes and identical query
*lists* (order included) over random windows.

The one intended difference: a header ``node_capacity`` below 2 reached
``STRtree.from_packed`` in the retired loader, which refused it with a bare
``ValueError``; the live loader raises ``StoreFormatError`` (a ``StoreError``
and still a ``ValueError``), as for every other malformed stream.
"""

import math
import random
import struct

import pytest
from _index_io_reference import load_index_reference  # the retired loader, kept next to this file
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Envelope
from repro.index import STRtree
from repro.store import StoreFormatError, dump_index, load_index

HEADER = struct.Struct("<8sHHIQ")
_BOUNDS = struct.Struct("<4d")  # NaN-safe comparison of envelopes: their bits

_lattice = st.integers(min_value=-4, max_value=4).map(float)
_coord = st.one_of(
    _lattice,
    _lattice,
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)
_box = st.tuples(_lattice, _lattice, st.integers(0, 3), st.integers(0, 3)).map(
    lambda t: Envelope(t[0], t[1], t[0] + t[2], t[1] + t[3])
)
# about half of the arbitrary envelopes are inverted: STRtree drops them at
# build; one with a NaN bound it refuses (a damaged stream still loads them)
_item_envelope = st.one_of(
    _box,
    _box,
    st.builds(Envelope, _coord, _coord, _coord, _coord).filter(
        lambda e: e.is_empty or not any(math.isnan(v) for v in e.as_tuple())
    ),
)
_u32 = st.integers(min_value=0, max_value=2**32 - 1)
_item = st.tuples(_item_envelope, st.tuples(_u32, _u32))
_window = st.one_of(
    _box, st.builds(Envelope, _coord, _coord, _coord, _coord), st.just(Envelope.empty())
)
#: (offset, byte) writes, offsets taken modulo the stream length
_damage = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), min_size=1, max_size=4)


def outcome(loader, blob, windows):
    """What *loader* makes of *blob*: its exception class, or the tree's
    observable state with every query answer in order."""
    try:
        tree = loader(blob)
    except Exception as exc:  # compared by class below
        return type(exc)
    return (
        len(tree),
        _BOUNDS.pack(*tree.bounds.as_tuple()),
        tree.stats(),
        dump_index(tree),
        [tree.query(window) for window in windows],
    )


def assert_loaders_agree(blob, windows):
    live = outcome(load_index, blob, windows)
    ref = outcome(load_index_reference, blob, windows)
    if isinstance(live, type):  # every malformed stream is a StoreFormatError
        assert live is StoreFormatError
    if ref is ValueError:  # the fixed bug: a capacity below 2
        assert HEADER.unpack_from(blob)[2] < 2 and live is StoreFormatError
    else:
        assert live == ref
    return live


def damaged(blob, writes, cut=None):
    data = bytearray(blob)
    for offset, value in writes:
        data[offset % len(data)] = value
    if cut is not None:
        del data[cut % len(data) :]
    return bytes(data)


class TestLoaderEqualsReference:
    @given(
        st.lists(_item, max_size=70),
        st.lists(_window, min_size=1, max_size=6),
        st.sampled_from([2, 16]),
        _damage,
        st.one_of(st.none(), st.integers(0, 1 << 16)),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_streams_and_damaged_copies(self, items, windows, cap, writes, cut):
        blob = dump_index(STRtree(items, node_capacity=cap))
        loaded = assert_loaders_agree(blob, windows)
        assert not isinstance(loaded, type)  # an undamaged stream always loads
        assert loaded[3] == blob
        assert_loaders_agree(damaged(blob, writes), windows)
        assert_loaders_agree(damaged(blob, writes, cut), windows)

    @pytest.mark.parametrize("cap", [2, 16])
    @pytest.mark.parametrize("seed", range(3))
    def test_larger_trees_under_byte_damage(self, seed, cap):
        rng = random.Random(seed)
        items = []
        for i in range(600):
            x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
            env = Envelope(x, y, x + rng.uniform(0, 30), y + rng.uniform(0, 30))
            items.append((env, (i // 16, i % 16)))
        blob = dump_index(STRtree(items, node_capacity=cap))
        windows = [Envelope(x, y, x + 150, y + 150) for x, y in ((0, 0), (420, 610), (900, 5))]
        windows.append(Envelope(-math.inf, -math.inf, math.inf, math.inf))
        assert_loaders_agree(blob, windows)
        kinds = set()
        for _ in range(60):
            writes = [(rng.randrange(len(blob)), rng.randrange(256)) for _ in range(rng.randrange(1, 4))]
            cut = rng.randrange(len(blob)) if rng.random() < 0.3 else None
            result = assert_loaders_agree(damaged(blob, writes, cut), windows)
            kinds.add("error" if isinstance(result, type) else "tree")
        assert kinds == {"error", "tree"}  # the damage reached both outcomes

    @pytest.mark.parametrize("cap", [0, 1])
    def test_the_one_intended_difference(self, cap):
        blob = bytearray(dump_index(STRtree([(Envelope(0, 0, 1, 1), (3, 4))])))
        struct.pack_into("<H", blob, 10, cap)
        with pytest.raises(ValueError) as retired:
            load_index_reference(bytes(blob))
        assert type(retired.value) is ValueError
        with pytest.raises(StoreFormatError, match="capacity"):
            load_index(bytes(blob))
