"""Property battery for the vectorized refine/scan hot path (PR 9).

The bulk filter (flat envelope-column arrays, set-operation replica de-dup
and tombstone shadowing, page-level containment fast path) must be
**observably identical** to the per-slot scalar loop it
replaced.  `_refine_reference.refine_reference` keeps that scalar loop verbatim
as the oracle; this battery drives both over randomized stores — bulk-loaded
and upgraded-from-v1 containers, multiple generations with tombstoned and updated ids, cross-shard
replicas, degenerate and empty MBRs, empty pages — and asserts equal hits,
equal decode counts and equal scan output, at 1/2/4 ranks.

Also covers the PR 9 accounting guarantees: `slots_scanned` /
`bulk_filter_batches` counters, EXPLAIN selectivity, and the degraded-path
rule that a quarantined page is reported as *failed*, never silently counted
as a zero-survivor bulk scan.
"""

import pickle
import random
from types import SimpleNamespace

import pytest
from _refine_reference import refine_reference  # the retired scalar loop, kept next to this file

from repro import mpisim
from repro.datasets import random_envelopes
from repro.geometry import (
    Envelope,
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    wkb,
)
from repro.obs.trace import Tracer
from repro.pfs import LustreFilesystem
from repro.store import (
    DistributedHit,
    DistributedStoreServer,
    PageChecksumError,
    PageKey,
    QueryHit,
    SpatialDataStore,
    StoreAppender,
    StoreStats,
    bulk_load,
    store_paths,
    upgrade_store,
)
from repro.store.engine import PlanEntry, RefineExecutor
from repro.store.format import encode_page_v2, encode_record_body
from repro.store.page import CachedPage

EXTENT = Envelope(0.0, 0.0, 100.0, 100.0)


def mixed_geometries(count, seed):
    """Polygons, axis-aligned linestrings (degenerate MBRs: zero height or
    width) and points (fully degenerate MBRs), with integer userdata."""
    rng = random.Random(seed)
    out = []
    for i, env in enumerate(
        random_envelopes(count, extent=EXTENT, max_size_fraction=0.08, seed=seed)
    ):
        kind = rng.random()
        if kind < 0.55:
            out.append(Polygon.from_envelope(env, userdata=i))
        elif kind < 0.7:
            # horizontal line: degenerate (zero-height) MBR
            out.append(
                LineString([(env.minx, env.miny), (env.maxx, env.miny)], userdata=i)
            )
        elif kind < 0.85:
            out.append(
                LineString([(env.minx, env.miny), (env.maxx, env.maxy)], userdata=i)
            )
        else:
            out.append(Point(env.minx, env.miny, userdata=i))
    return out


def probe_windows(n, seed, frac=0.2):
    wins = list(
        random_envelopes(n, extent=EXTENT, max_size_fraction=frac, seed=seed)
    )
    wins.append(EXTENT)  # whole-extent: exercises the page-contained fast path
    wins.append(Envelope(40.0, 40.0, 41.0, 41.0))
    return wins


def hit_key(h):
    return (
        h.record_id,
        h.partition_id,
        h.page_id,
        h.generation,
        wkb.dumps(h.geometry),
        h.geometry.userdata,
    )


def refine_both_ways(store, window, exact):
    """Run one window through the bulk refine and the scalar reference over
    the same fetched pages; returns (bulk_hits, reference_hits)."""
    plan = store.engine.planner.plan([(0, window)])
    executor = store.engine.executor
    bulk, ref = [], []
    for entry in plan.entries:
        pages = store._get_pages(entry.by_page)
        bulk.extend(executor.refine(entry, pages, exact))
        ref.extend(refine_reference(executor, entry, pages, exact))
    return bulk, ref


@pytest.fixture(scope="module")
def fs(tmp_path_factory):
    return LustreFilesystem(tmp_path_factory.mktemp("hotfs"), ost_count=8)


@pytest.fixture(scope="module")
def geoms():
    return mixed_geometries(400, seed=901)


@pytest.fixture(scope="module")
def v2_name(fs, geoms):
    bulk_load(fs, "hot_v2", geoms, num_partitions=16, page_size=1024)
    return "hot_v2"


@pytest.fixture(scope="module")
def v1_name(fs, geoms, rewrite_container_as_v1):
    """A container written in the retired v1 layout, rewritten by
    ``upgrade_store`` — the only way v1 data reaches the serving path."""
    bulk_load(fs, "hot_v1", geoms, num_partitions=16, page_size=1024)
    rewrite_container_as_v1(fs, store_paths("hot_v1")["data"])
    upgrade_store(fs, "hot_v1")
    return "hot_v1"


@pytest.fixture(scope="module")
def gen_store(fs, geoms):
    """A three-generation store with updates (shadowing) and tombstones,
    plus the expected visible ``{record_id: geometry}`` map."""
    bulk_load(fs, "hot_gen", geoms, num_partitions=16, page_size=1024)
    visible = {i: g for i, g in enumerate(geoms)}

    moved = mixed_geometries(30, seed=902)
    appender = StoreAppender(fs, "hot_gen")
    update_ids = list(range(10, 40))
    appender.append(moved, record_ids=update_ids, deletes=list(range(200, 230)))
    for rid, g in zip(update_ids, moved):
        visible[rid] = g
    for rid in range(200, 230):
        visible.pop(rid)

    fresh = mixed_geometries(40, seed=903)
    fresh_ids = list(range(1000, 1040))
    appender.append(fresh, record_ids=fresh_ids, deletes=list(range(25, 35)))
    for rid, g in zip(fresh_ids, fresh):
        visible[rid] = g
    for rid in range(25, 35):
        visible.pop(rid)
    return "hot_gen", visible


@pytest.fixture(scope="module")
def sharded_name(fs, geoms):
    bulk_load(fs, "hot_sharded", geoms, num_shards=4, num_partitions=16)
    return "hot_sharded"


def brute_force(visible, window):
    if isinstance(window, Envelope):
        if window.is_empty:
            return []
        poly = Polygon.from_envelope(window)
    else:
        poly = window
    from repro.geometry import predicates

    return sorted(
        rid
        for rid, g in visible.items()
        if g.envelope.intersects(poly.envelope) and predicates.intersects(poly, g)
    )


# --------------------------------------------------------------------------- #
# vectorized == scalar reference
# --------------------------------------------------------------------------- #
class TestBulkEqualsReference:
    @pytest.mark.parametrize("exact", [True, False])
    def test_v2_windows(self, fs, v2_name, exact):
        store = SpatialDataStore.open(fs, v2_name, cache_pages=1024)
        for window in probe_windows(20, seed=11):
            bulk, ref = refine_both_ways(store, window, exact)
            assert [hit_key(h) for h in bulk] == [hit_key(h) for h in ref]

    @pytest.mark.parametrize("exact", [True, False])
    def test_v1_windows(self, fs, v1_name, exact):
        store = SpatialDataStore.open(fs, v1_name, cache_pages=1024)
        for window in probe_windows(20, seed=12):
            bulk, ref = refine_both_ways(store, window, exact)
            assert [hit_key(h) for h in bulk] == [hit_key(h) for h in ref]

    @pytest.mark.parametrize("exact", [True, False])
    def test_generations_tombstones_updates(self, fs, gen_store, exact):
        name, visible = gen_store
        store = SpatialDataStore.open(fs, name, cache_pages=1024)
        for window in probe_windows(20, seed=13):
            bulk, ref = refine_both_ways(store, window, exact)
            assert [hit_key(h) for h in bulk] == [hit_key(h) for h in ref]
            if exact:
                assert [h.record_id for h in bulk] == brute_force(visible, window)

    def test_geometry_windows(self, fs, geoms, v2_name):
        # non-rectangular windows: the predicate path, no rect shortcut
        store = SpatialDataStore.open(fs, v2_name, cache_pages=1024)
        for probe in geoms[:25]:
            bulk, ref = refine_both_ways(store, probe, exact=True)
            assert [hit_key(h) for h in bulk] == [hit_key(h) for h in ref]

    def test_v1_equals_v2(self, fs, v1_name, v2_name):
        v1 = SpatialDataStore.open(fs, v1_name, cache_pages=1024)
        v2 = SpatialDataStore.open(fs, v2_name, cache_pages=1024)
        for window in probe_windows(15, seed=14):
            ids1 = [h.record_id for h in v1.range_query(window)]
            ids2 = [h.record_id for h in v2.range_query(window)]
            assert ids1 == ids2

    def test_records_decoded_parity_with_reference(self, fs, gen_store):
        # the bulk path must decode exactly the slots the scalar loop did
        name, _ = gen_store
        windows = probe_windows(15, seed=15)

        bulk_store = SpatialDataStore.open(fs, name, cache_pages=1024)
        for window in windows:
            bulk_store.range_query(window)
        bulk_decoded = bulk_store.stats.records_decoded

        ref_store = SpatialDataStore.open(fs, name, cache_pages=1024)
        executor = ref_store.engine.executor
        for window in windows:
            plan = ref_store.engine.planner.plan([(0, window)])
            for entry in plan.entries:
                pages = ref_store._get_pages(entry.by_page)
                refine_reference(executor, entry, pages, exact=True)
        assert bulk_decoded == ref_store.stats.records_decoded


# --------------------------------------------------------------------------- #
# the rectangle-window kernel under the engine
# --------------------------------------------------------------------------- #
def shaped_geometries(count, seed):
    """Records whose exact shape differs from their MBR — holed and concave
    polygons, diagonal lines, Multi* and collections — on a 1/2 lattice, so a
    window side can lie exactly on a record edge or a hole wall."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        x, y = rng.randrange(0, 180) / 2, rng.randrange(0, 180) / 2
        w, h = rng.randrange(2, 16) / 2 * 2, rng.randrange(2, 16) / 2 * 2  # whole units

        def at(*grid):  # points of an 8x8 grid over the record's box
            return [(x + gx * w / 8, y + gy * h / 8) for gx, gy in grid]

        box = at((0, 0), (8, 0), (8, 8), (0, 8))
        kind = i % 8
        if kind == 0:  # box with a large hole
            geom = Polygon(box, [at((2, 2), (6, 2), (6, 6), (2, 6))], userdata=i)
        elif kind == 1:  # U: a window can sit in the notch
            geom = Polygon(
                at((0, 0), (8, 0), (8, 8), (6, 8), (6, 2), (2, 2), (2, 8), (0, 8)), userdata=i
            )
        elif kind == 2:  # diamond with a hole: no axis-parallel edge
            geom = Polygon(
                at((4, 0), (8, 4), (4, 8), (0, 4)), [at((3, 3), (5, 3), (5, 5), (3, 5))],
                userdata=i,
            )
        elif kind == 3:  # L with two holes
            geom = Polygon(
                at((0, 0), (8, 0), (8, 4), (4, 4), (4, 8), (0, 8)),
                [at((1, 1), (3, 1), (3, 3), (1, 3)), at((5, 1), (7, 1), (7, 3), (5, 3))],
                userdata=i,
            )
        elif kind == 4:  # two far-apart boxes: the MBR is mostly empty
            geom = MultiPolygon(
                [Polygon(at((0, 0), (2, 0), (2, 2), (0, 2))),
                 Polygon(at((6, 6), (8, 6), (8, 8), (6, 8)), [at((6.5, 6.5), (7.5, 6.5), (7, 7.5))])],
                userdata=i,
            )
        elif kind == 5:
            geom = MultiLineString(
                [LineString(at((0, 8), (3, 5))), LineString(at((5, 3), (8, 0), (8, 2)))], userdata=i
            )
        elif kind == 6:
            geom = GeometryCollection(
                [Point(*at((0, 0))[0]), LineString(at((8, 0), (4, 4))),
                 MultiPoint([Point(*at((8, 8))[0]), Point(*at((2, 6))[0])]),
                 Polygon(at((0, 6), (2, 6), (2, 8), (0, 8)))],
                userdata=i,
            )
        else:  # zig-zag line
            geom = LineString(at((0, 0), (8, 2), (0, 4), (8, 6), (0, 8)), userdata=i)
        out.append(geom)
    return out


def kernel_windows(geoms, seed):
    """Point-sized, line-sized and record-edge-aligned windows (plus a few
    ordinary ones), derived from the records themselves."""
    rng = random.Random(seed)
    wins = list(random_envelopes(10, extent=EXTENT, max_size_fraction=0.15, seed=seed))
    for g in rng.sample(geoms, 24):
        x0, y0, x1, y1 = g.envelope.as_tuple()
        cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
        wins += [
            Envelope(cx, cy, cx, cy),  # point: in a hole, a notch or the interior
            Envelope(x0, y0, x0, y0),  # point on the MBR corner
            Envelope(x0, cy, x1, cy),  # horizontal line through the middle
            Envelope(cx, y0 - 1, cx, y1 + 1),  # vertical line through and beyond
            Envelope(x0 - 3, y0 - 3, x0, y1 + 3),  # right side on the record's left edge
            Envelope(x0 - 3, y1, x1 + 3, y1 + 3),  # bottom side on the record's top edge
            # the middle half: exactly kind 0's hole, inside kind 2's diamond
            Envelope(x0 + (x1 - x0) / 4, y0 + (y1 - y0) / 4, x1 - (x1 - x0) / 4, y1 - (y1 - y0) / 4),
            # strictly inside that: touches nothing of a holed box
            Envelope(x0 + 3 * (x1 - x0) / 8, y0 + 3 * (y1 - y0) / 8, cx, cy),
            Envelope(x1, y1, x1 + 5, y1 + 5),  # corner on corner
        ]
    return wins


@pytest.fixture(scope="module")
def shaped(fs):
    geoms = shaped_geometries(320, seed=951)
    bulk_load(fs, "hot_shaped", geoms, num_partitions=16, page_size=1024)
    return "hot_shaped", geoms


class TestRectangleKernelUnderTheEngine:
    """``refine`` hands the window envelope to ``predicates.intersects``
    (the rectangle kernel); ``refine_reference`` still builds
    ``Polygon.from_envelope(window)`` and so runs the general kernel.  The
    two must emit the same hits where the exact shape, not the MBR, decides."""

    def test_exact_refine_equals_reference(self, fs, shaped):
        name, geoms = shaped
        store = SpatialDataStore.open(fs, name, cache_pages=1024)
        visible = dict(enumerate(geoms))
        mbr_only_differs = 0
        for window in kernel_windows(geoms, seed=952):
            bulk, ref = refine_both_ways(store, window, exact=True)
            assert [hit_key(h) for h in bulk] == [hit_key(h) for h in ref]
            assert [h.record_id for h in bulk] == brute_force(visible, window)
            loose, _ = refine_both_ways(store, window, exact=False)
            mbr_only_differs += len(loose) != len(bulk)
        # the battery is about shapes: the MBR answer must often be wrong
        assert mbr_only_differs > 50

    def test_window_in_a_hole_and_on_its_wall(self, fs, shaped):
        name, geoms = shaped
        store = SpatialDataStore.open(fs, name, cache_pages=1024)
        holed = next(g for g in geoms if isinstance(g, Polygon) and len(g.holes) == 1
                     and g.holes[0].envelope.width == g.envelope.width / 2)
        x0, y0, x1, y1 = holed.holes[0].envelope.as_tuple()
        rid = holed.userdata
        inside = Envelope(x0 + 0.25, y0 + 0.25, x1 - 0.25, y1 - 0.25)
        assert rid not in [h.record_id for h in store.range_query(inside)]
        assert rid in [h.record_id for h in store.range_query(inside, exact=False)]
        on_wall = Envelope(x0 + 0.25, y0 + 0.25, x1, y1 - 0.25)
        assert rid in [h.record_id for h in store.range_query(on_wall)]

    def test_refine_builds_no_window_polygon(self, fs, shaped, monkeypatch):
        from repro.geometry import predicates

        name, geoms = shaped
        store = SpatialDataStore.open(fs, name, cache_pages=1024)
        window = Envelope(20.0, 20.0, 60.5, 61.0)
        plan = store.engine.planner.plan([(0, window)])
        executor = store.engine.executor
        calls = []
        real = predicates.intersects

        def spy(a, b):
            calls.append(a)
            return real(a, b)

        def forbidden(*args, **kwargs):
            raise AssertionError("RefineExecutor.refine built a window polygon")

        # the engine must reach the predicate through the module attribute,
        # once per checked survivor, with the envelope itself as the operand
        monkeypatch.setattr(predicates, "intersects", spy)
        for entry in plan.entries:
            pages = store._get_pages(entry.by_page)
            ref = refine_reference(executor, entry, pages, True)
            reference_calls = len(calls)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(Polygon, "from_envelope", forbidden)
                bulk = executor.refine(entry, pages, True)
            assert [hit_key(h) for h in bulk] == [hit_key(h) for h in ref]
            assert len(calls) == reference_calls > 0
            assert all(operand is entry.env for operand in calls)
            calls.clear()


# --------------------------------------------------------------------------- #
# hand-built pages: empty MBRs, empty pages, intra-page duplicates
# --------------------------------------------------------------------------- #
def build_page(entries, page_id=0, on_decode=None):
    payload = encode_page_v2(
        [(rid, env, encode_record_body(g)) for rid, env, g in entries]
    )
    return CachedPage(page_id, payload, on_decode=on_decode)


def traced_executor(partition_of_page, **kwargs):
    """An executor over a stand-in store: a recording tracer plus the stats
    the ``decode`` span and the decode callback charge."""
    store = SimpleNamespace(tracer=Tracer(), stats=StoreStats())

    def on_decode(n):
        store.stats.records_decoded += n

    executor = RefineExecutor(partition_of_page, store=store, **kwargs)
    return executor, store, on_decode


def decode_span(store):
    span = [sp for sp in store.tracer.spans if sp.name == "decode"][-1]
    return {k: v for k, v in span.attrs.items() if k != "query_id"}


class TestHandBuiltPages:
    def test_empty_envelope_slot_never_takes_the_shortcut(self, monkeypatch):
        # an empty MBR's ±inf sentinels satisfy naive boundary comparisons
        # vacuously; the classify pass must still say "not contained": the
        # slot is checked (decoded, predicate evaluated), never proven
        from repro.geometry import predicates

        checked = []
        real = predicates.intersects
        monkeypatch.setattr(
            predicates, "intersects", lambda a, b: checked.append(b) or real(a, b)
        )
        g = Point(5.0, 5.0, userdata="x")
        key = PageKey(0, 0)
        executor, store, on_decode = traced_executor({key: 7})
        page = build_page(
            [(0, g.envelope, g), (1, Envelope.empty(), g), (2, g.envelope, g)],
            on_decode=on_decode,
        )
        window = Envelope(0.0, 0.0, 100.0, 100.0)
        entry = PlanEntry(0, None, window, None, {key: [0, 1, 2]})
        hits = executor.refine(entry, {key: page}, exact=True)
        assert decode_span(store)["rect_shortcuts"] == 2
        # only the empty-MBR slot went through the predicate
        assert checked == [page.memo[1]]
        assert [h.record_id for h in hits] == [0, 1, 2]
        assert decode_span(store)["records_decoded"] == 3
        # and the page-level summary refuses the all-contained fast path
        assert page.env_summary()[4] is True

    @pytest.mark.parametrize("empty", [MultiPoint([]), GeometryCollection([])])
    @pytest.mark.parametrize(
        "window, exact, num_hits",
        [
            (EXTENT, True, 1),  # slot MBR inside the window: proven
            (Envelope(5.0, 5.0, 50.0, 50.0), True, 0),  # cut by it: checked
            (Envelope(5.0, 5.0, 50.0, 50.0), False, 1),  # MBR-only: proven
        ],
    )
    def test_falsy_geometry_is_decoded_once(
        self, empty, window, exact, num_hits, monkeypatch
    ):
        # an empty MultiPoint / GeometryCollection is falsy: the memo probe
        # must ask "is None", or every later query takes the decode call
        # again — in the proven loop and in the checked loop alike
        assert not empty
        record_calls = []
        real_record = CachedPage.record
        monkeypatch.setattr(
            CachedPage, "record",
            lambda page, slot: record_calls.append(slot) or real_record(page, slot),
        )
        g = Point(5.0, 5.0, userdata="x")
        key = PageKey(0, 0)
        executor, store, on_decode = traced_executor({key: 7})
        page = build_page(
            [(0, g.envelope, g), (1, Envelope(2.0, 2.0, 8.0, 8.0), empty)],
            on_decode=on_decode,
        )
        entry = PlanEntry(0, None, window, None, {key: [1]})
        first = executor.refine(entry, {key: page}, exact=exact)
        assert store.stats.records_decoded == 1 and record_calls == [1]
        second = executor.refine(entry, {key: page}, exact=exact)
        assert store.stats.records_decoded == 1
        assert record_calls == [1]  # served from the memo, no second call
        assert decode_span(store)["records_decoded"] == 0
        assert sum(geom is not None for geom in page.memo) == 1
        assert len(first) == len(second) == num_hits
        if num_hits:
            # both queries hand back the one memoised object
            assert second[0].geometry is first[0].geometry
            assert type(second[0].geometry) is type(empty)

    def test_refine_matches_reference_on_empty_mbr_slots(self):
        g = Point(5.0, 5.0, userdata="x")
        h = Point(50.0, 50.0, userdata="y")
        page = build_page(
            [(0, g.envelope, g), (1, Envelope.empty(), h), (2, h.envelope, h)]
        )
        key = PageKey(0, 0)
        entry = PlanEntry(0, None, EXTENT, None, {key: [0, 1, 2]})
        executor = RefineExecutor({key: 7})
        bulk = executor.refine(entry, {key: page}, exact=True)
        ref = refine_reference(executor, entry, {key: page}, exact=True)
        assert [hit_key(x) for x in bulk] == [hit_key(x) for x in ref]

    def test_empty_page_and_empty_slot_list(self):
        page = build_page([])
        assert len(page) == 0
        assert page.env_summary()[4] is False
        key = PageKey(0, 0)
        entry = PlanEntry(0, None, EXTENT, None, {key: []})
        executor = RefineExecutor({})
        assert executor.refine(entry, {key: page}, exact=True) == []
        assert refine_reference(executor, entry, {key: page}, exact=True) == []

    def test_duplicate_id_within_page_keeps_first_wins_order(self):
        # cannot come from the writers (pages never span partitions), but a
        # hand-built plan must still match the scalar first-encounter rule
        a = Point(10.0, 10.0, userdata="first")
        b = Point(20.0, 20.0, userdata="second")
        page = build_page([(5, a.envelope, a), (5, b.envelope, b)])
        key = PageKey(0, 0)
        entry = PlanEntry(0, None, EXTENT, None, {key: [0, 1]})
        executor = RefineExecutor({})
        bulk = executor.refine(entry, {key: page}, exact=True)
        ref = refine_reference(executor, entry, {key: page}, exact=True)
        assert [hit_key(x) for x in bulk] == [hit_key(x) for x in ref]
        assert len(bulk) == 1 and bulk[0].geometry.userdata == "first"

    def test_cross_page_replica_dedup_newest_generation_wins(self):
        old = Point(30.0, 30.0, userdata="old")
        new = Point(31.0, 31.0, userdata="new")
        base = build_page([(9, old.envelope, old)], page_id=0)
        delta = build_page([(9, new.envelope, new)], page_id=0)
        k0, k1 = PageKey(0, 0), PageKey(1, 0)
        entry = PlanEntry(0, None, EXTENT, None, {k0: [0], k1: [0]})
        executor = RefineExecutor({})
        pages = {k0: base, k1: delta}
        bulk = executor.refine(entry, pages, exact=True)
        ref = refine_reference(executor, entry, pages, exact=True)
        assert [hit_key(x) for x in bulk] == [hit_key(x) for x in ref]
        assert len(bulk) == 1 and bulk[0].geometry.userdata == "new"

    def test_tombstone_shadow_matches_reference(self):
        g = Point(40.0, 40.0, userdata="dead")
        live = Point(41.0, 41.0, userdata="live")
        page = build_page([(3, g.envelope, g), (4, live.envelope, live)])
        key = PageKey(0, 0)
        entry = PlanEntry(0, None, EXTENT, None, {key: [0, 1]})
        executor = RefineExecutor({}, tombstone_gen={3: 2})
        bulk = executor.refine(entry, {key: page}, exact=True)
        ref = refine_reference(executor, entry, {key: page}, exact=True)
        assert [hit_key(x) for x in bulk] == [hit_key(x) for x in ref]
        assert [x.record_id for x in bulk] == [4]


# --------------------------------------------------------------------------- #
# cross-shard replicas at 1/2/4 ranks
# --------------------------------------------------------------------------- #
class TestShardedEquality:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_engine_equals_sharded_equals_brute_force(
        self, fs, geoms, v2_name, sharded_name, nprocs
    ):
        envs = probe_windows(8, seed=21)
        queries = [(i, env) for i, env in enumerate(envs)]
        visible = {i: g for i, g in enumerate(geoms)}

        single = SpatialDataStore.open(fs, v2_name, cache_pages=1024)
        single_ids = [
            sorted(h.record_id for h in hits)
            for hits in single.range_query_batch(queries)
        ]

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, sharded_name) as server:
                return server.range_query_batch(
                    queries if comm.rank == 0 else None, exact=True
                )

        hits = mpisim.run_spmd(prog, nprocs).values[0]
        sharded_ids = [[] for _ in queries]
        for h in hits:
            sharded_ids[h.query_id].append(h.record_id)
        sharded_ids = [sorted(ids) for ids in sharded_ids]

        brute = [brute_force(visible, env) for env in envs]
        assert single_ids == brute
        assert sharded_ids == brute


# --------------------------------------------------------------------------- #
# the decode span's account, against a slot-at-a-time recount
# --------------------------------------------------------------------------- #
def reference_accounting(executor, entry, pages, exact):
    """What the ``decode`` span must report, by the scalar loop's rules — a
    slot at a time, no sets, no columns.  Peeks at the decode memo, so it
    has to run *before* the refine it predicts."""
    rect = entry.env if exact and entry.geom is None and not entry.env.is_empty else None
    counts = dict.fromkeys(
        ("replicas_skipped", "tombstone_drops", "records_decoded", "rect_shortcuts",
         "slots_scanned", "bulk_filter_batches"), 0,
    )
    seen = set()
    for key in sorted(entry.by_page, key=lambda k: (-k[0], k[1])):
        page = pages[key]
        counts["bulk_filter_batches"] += 1
        for slot in entry.by_page[key]:
            counts["slots_scanned"] += 1
            rid = page.record_ids[slot]
            if rid in seen:
                counts["replicas_skipped"] += 1
                continue
            if executor._tombstone_gen.get(rid, -1) > key.generation:
                counts["tombstone_drops"] += 1
                continue
            seen.add(rid)
            contained = rect is not None and rect.contains(page.envelope(slot))
            counts["rect_shortcuts"] += contained
            if page.memo[slot] is None:
                counts["records_decoded"] += 1
    return counts


class TestDecodeSpanAccounting:
    @pytest.fixture(params=["hot_v2", "hot_gen", "hot_shaped"])
    def traced_store(self, request, fs, v2_name, gen_store, shaped):
        with SpatialDataStore.open(
            fs, request.param, cache_pages=1024, tracer=Tracer()
        ) as store:
            yield store

    @pytest.mark.parametrize("exact", [True, False])
    def test_span_attributes_equal_the_recount(self, traced_store, geoms, exact):
        store = traced_store
        executor = store.engine.executor
        windows = probe_windows(12, seed=61) + geoms[:6]  # rectangles and shapes
        moved = dict.fromkeys(("replicas_skipped", "tombstone_drops", "rect_shortcuts"), 0)
        for window in windows:
            for entry in store.engine.planner.plan([(0, window)]).entries:
                pages = store._get_pages(entry.by_page)
                expected = reference_accounting(executor, entry, pages, exact)
                before = store.stats.as_dict()
                hits = executor.refine(entry, pages, exact)
                span = store.tracer.spans[-1]
                assert span.name == "decode"
                # the span and the stats are one account
                after = store.stats.as_dict()
                for name in ("records_decoded", "slots_scanned", "bulk_filter_batches"):
                    assert after[name] - before[name] == expected[name]
                expected["num_hits"] = len(refine_reference(executor, entry, pages, exact))
                assert len(hits) == expected["num_hits"]
                assert {k: span.attrs[k] for k in expected} == expected
                assert set(span.attrs) == set(expected) | {"query_id"}
                for name in moved:
                    moved[name] += expected[name]
        # the battery reaches every kind of decision it recounts
        assert moved["rect_shortcuts"] > 0 or not exact
        if store.name == "hot_gen":
            assert moved["replicas_skipped"] > 0 and moved["tombstone_drops"] > 0


# --------------------------------------------------------------------------- #
# hits are tuples
# --------------------------------------------------------------------------- #
class TestHitTypes:
    def test_query_hit_is_a_named_tuple(self):
        g = Point(1.0, 2.0, userdata="u")
        hit = QueryHit(7, g, 3, 5)
        assert QueryHit._fields == (
            "record_id", "geometry", "partition_id", "page_id", "generation"
        )
        assert hit == (7, g, 3, 5, 0) and hit.generation == 0
        assert QueryHit(7, g, 3, 5, generation=2).generation == 2
        assert (hit.record_id, hit.geometry, hit.partition_id, hit.page_id) == (7, g, 3, 5)
        with pytest.raises(AttributeError):
            hit.record_id = 8
        with pytest.raises(AttributeError):
            hit.extra = 1  # no instance dict either
        back = pickle.loads(pickle.dumps(hit))
        assert type(back) is QueryHit and back.record_id == 7 and back[2:] == (3, 5, 0)
        assert back.geometry.userdata == "u" and wkb.dumps(back.geometry) == wkb.dumps(g)
        assert hash(QueryHit(7, None, 3, 5)) == hash(QueryHit(7, None, 3, 5))

    def test_distributed_hit_is_a_named_tuple(self):
        g = Point(1.0, 2.0)
        hit = DistributedHit("q", 7, g, 2, 3, 5)
        assert DistributedHit._fields == (
            "query_id", "record_id", "geometry", "shard_id", "partition_id", "page_id"
        )
        assert hit == DistributedHit(
            query_id="q", record_id=7, geometry=g, shard_id=2, partition_id=3, page_id=5
        )
        with pytest.raises(AttributeError):
            hit.shard_id = 0
        back = pickle.loads(pickle.dumps(hit))
        assert type(back) is DistributedHit and back[:2] == ("q", 7) and back[3:] == (2, 3, 5)

    def test_record_ids_are_python_ints(self, fs, v2_name, sharded_name):
        # perf/fixtures.digest is repr(sorted(...)): an array or numpy scalar
        # in record_id would change every digest
        store = SpatialDataStore.open(fs, v2_name, cache_pages=1024)
        hits = store.range_query(Envelope(10.0, 10.0, 60.0, 60.0))
        assert hits and all(type(h.record_id) is int for h in hits)
        assert all(type(h) is QueryHit for h in hits)

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, sharded_name) as server:
                return server.range_query_batch(
                    [(0, Envelope(10.0, 10.0, 60.0, 60.0))] if comm.rank == 0 else None
                )

        sharded = mpisim.run_spmd(prog, 2).values[0]
        assert sharded and all(type(h) is DistributedHit for h in sharded)
        assert all(type(h.record_id) is int for h in sharded)


# --------------------------------------------------------------------------- #
# counters and EXPLAIN selectivity
# --------------------------------------------------------------------------- #
class TestCountersAndExplain:
    def test_slots_scanned_and_batches_move(self, fs, v2_name):
        store = SpatialDataStore.open(fs, v2_name, cache_pages=1024)
        assert store.stats.slots_scanned == 0
        assert store.stats.bulk_filter_batches == 0
        store.range_query(Envelope(10.0, 10.0, 50.0, 50.0))
        assert store.stats.slots_scanned > 0
        assert store.stats.bulk_filter_batches > 0
        assert store.stats.slots_scanned >= store.stats.bulk_filter_batches

    def test_explain_surfaces_selectivity(self, fs, gen_store):
        name, _ = gen_store
        store = SpatialDataStore.open(fs, name, cache_pages=1024)
        report = store.explain(Envelope(5.0, 5.0, 80.0, 80.0))
        refine = report.refine
        assert refine["slots_scanned"] > 0
        assert refine["bulk_filter_batches"] > 0
        # EXPLAIN's refine numbers are stats deltas by construction
        assert refine["slots_scanned"] == report.stats_delta["slots_scanned"]
        assert (
            refine["bulk_filter_batches"]
            == report.stats_delta["bulk_filter_batches"]
        )
        # selectivity = survivors / slots_scanned, and survivors are exactly
        # the decoded records on the eager path: zero per-slot work hides
        survivors = (
            refine["slots_scanned"]
            - refine["replicas_skipped"]
            - refine["tombstone_drops"]
        )
        assert 0.0 < refine["filter_selectivity"] <= 1.0
        assert refine["filter_selectivity"] == survivors / refine["slots_scanned"]
        assert survivors == refine["records_decoded"]
        assert "selectivity" in report.render()

    @pytest.mark.parametrize("nprocs", [2])
    def test_distributed_explain_carries_selectivity(self, fs, sharded_name, nprocs):
        queries = [(i, w) for i, w in enumerate(probe_windows(4, seed=41))]

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, sharded_name) as server:
                report = server.explain_batch(
                    queries if comm.rank == 0 else None
                )
                return report.as_dict() if report is not None else None

        report = mpisim.run_spmd(prog, nprocs).values[0]
        assert report["stats_delta"]["slots_scanned"] > 0
        assert report["stats_delta"]["bulk_filter_batches"] > 0
        shard_scanned = sum(
            info.get("slots_scanned", 0) for info in report["shards"].values()
        )
        assert shard_scanned == report["stats_delta"]["slots_scanned"]


# --------------------------------------------------------------------------- #
# scan() and degraded accounting (bulk filter must not hide failed pages)
# --------------------------------------------------------------------------- #
class TestScanAndDegradedAccounting:
    def test_scan_equals_visible_records(self, fs, gen_store):
        name, visible = gen_store
        store = SpatialDataStore.open(fs, name, cache_pages=1024)
        scanned = dict(store.scan())
        assert set(scanned) == set(visible)
        for rid, geom in scanned.items():
            assert wkb.dumps(geom) == wkb.dumps(visible[rid])
            assert geom.userdata == visible[rid].userdata

    def test_scan_bounded_runs_with_tiny_cache(self, fs, gen_store):
        name, visible = gen_store
        store = SpatialDataStore.open(fs, name, cache_pages=4)
        scanned = dict(store.scan())
        assert set(scanned) == set(visible)

    def test_scan_raises_on_quarantined_page(self, fs, geoms):
        # a checksum-failed page must abort the scan, not read as an empty
        # (zero-survivor) bulk batch
        bulk_load(fs, "hot_scan_bad", geoms[:120], num_partitions=4,
                  page_size=1024)
        with SpatialDataStore.open(fs, "hot_scan_bad", cache_pages=64) as store:
            from tests.store.test_faults import flip_page_byte

            flip_page_byte(fs, store)
        with SpatialDataStore.open(fs, "hot_scan_bad", cache_pages=64) as store:
            with pytest.raises(PageChecksumError):
                dict(store.scan())
            # and again once quarantined: still an error, never silence
            with pytest.raises(PageChecksumError, match="quarantined"):
                dict(store.scan())

    def test_degraded_outcome_excludes_failed_pages_from_slots_scanned(
        self, fs, geoms
    ):
        bulk_load(fs, "hot_degraded", geoms[:150], num_partitions=4,
                  page_size=1024)
        window = EXTENT
        with SpatialDataStore.open(fs, "hot_degraded", cache_pages=256) as store:
            plan = store.engine.planner.plan([(0, window)])
            clean_slots = sum(
                len(slots)
                for entry in plan.entries
                for slots in entry.by_page.values()
            )
            from tests.store.test_faults import flip_page_byte

            bad_key = flip_page_byte(fs, store)
            bad_slots = sum(
                len(entry.by_page.get(bad_key, ())) for entry in plan.entries
            )
            assert bad_slots > 0

        with SpatialDataStore.open(fs, "hot_degraded", cache_pages=256) as store:
            before = store.stats.slots_scanned
            outcome = store.query_outcome([(0, window)], partial_ok=True)
            assert not outcome.complete
            assert [key for key, _ in outcome.failed_pages] == [bad_key]
            assert outcome.incomplete_queries == [0]
            # the bulk filter scanned exactly the available pages' slots —
            # the failed page is accounted as failed, not as zero survivors
            assert store.stats.slots_scanned - before == clean_slots - bad_slots

    def test_budget_zero_charges_no_bulk_batches(self, fs, geoms):
        bulk_load(fs, "hot_budget", geoms[:80], num_partitions=4, page_size=1024)
        with SpatialDataStore.open(fs, "hot_budget", cache_pages=64) as store:
            outcome = store.query_outcome(
                [(0, EXTENT)], partial_ok=True, budget=0.0
            )
            assert not outcome.complete
            assert store.stats.slots_scanned == 0
            assert store.stats.bulk_filter_batches == 0
