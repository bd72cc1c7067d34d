"""The staged query engine: **plan → schedule → refine**, shared by every
serving entry point.

Before this module the filter-and-refine discipline (§4–§5 of the paper) was
re-implemented ad hoc in four places — ``SpatialDataStore.range_query``,
``range_query_batch``, ``join`` and the sharded server's local queries.  The
engine makes each stage an explicit object with one owner:

* :class:`QueryPlanner` — the **filter** phase: window → candidate
  ``(page, slot)`` sets (the packed index is the one prune), batch-wide
  page-touch dedup and the shared space-filling-curve visit order
  (:func:`repro.index.sfc.spatial_visit_order`).  Its output is a
  :class:`QueryPlan`, pure metadata — no I/O has happened yet.
* :class:`~repro.store.scheduler.IOScheduler` — the **I/O** stage: missing
  pages → data sieves priced by the ``repro.pfs`` striping layout / cost
  model, with stripe-aligned readahead under the cost-model policy (see
  :mod:`repro.store.scheduler`).
* :class:`RefineExecutor` — the **refine** phase: record-id de-dup and
  tombstone shadowing on the envelope column *before* any decode, the
  rectangular-window MBR proofs (containment, or one whole MBR side inside
  the window), and per-slot WKB decode of the slots the proofs cannot
  settle; a hit the column proved decodes its record when its geometry is
  first read.

:meth:`SpatialDataStore.query_outcome
<repro.store.datastore.SpatialDataStore.query_outcome>` runs the three over
one open store in **one** stage loop (strict serving, degraded serving and
traced serving are modes of it, not copies); the store holds the planner and
the executor.  A join is a batch of it too: its windows are the probe
geometries, which the refine executor tests with ``intersects`` — the only
refine of both joins.  The sharded server serves each shard through that
shard store's loop, so the single and distributed paths can never diverge;
the async front-end (:mod:`repro.store.frontend`) multiplexes batches over
the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..geometry import Envelope, Geometry, predicates
from ..index import STRtree, spatial_visit_order
from ..obs.trace import NULL_TRACER
from .format import (PageKey, StoreError, decode_record_body, encode_page_v2, record_frame,
                     slot_entry)
from .manifest import StoreManifest
from .page import CachedPage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .datastore import Generation, SpatialDataStore

__all__ = [
    "BatchOutcome",
    "DeadlineExceeded",
    "DistributedHit",
    "PlanEntry",
    "QueryPlan",
    "QueryHit",
    "QueryPlanner",
    "RefineExecutor",
]


class DeadlineExceeded(StoreError):
    """A query batch ran out of its simulated-I/O-seconds budget."""


class _Hit:
    """The record part of a store hit — a slotted, immutable value.

    A hit holds its decoded geometry, or, when the refine loop proved it
    from the envelope column before the slot was ever decoded, the page's
    payload ``bytes`` and the slot: :attr:`geometry` decodes the record on
    first read and keeps it (the write is idempotent, so hits shared by rank
    threads need no lock).  Such a hit allocates nothing besides itself and
    never references a :class:`~repro.store.page.CachedPage`; it pickles as
    its record's frame on a one-slot page, never as the whole payload.
    Subclasses name their public fields in ``_fields`` (``geometry``
    included), which equality, hashing and ``repr`` follow.
    """

    __slots__ = ("_geometry", "_payload", "_slot")
    _fields: Tuple[str, ...] = ()

    @property
    def geometry(self) -> Geometry:
        payload = self._payload
        if payload is None:
            return self._geometry
        entry = slot_entry(payload, self._slot)
        # the stored MBR is the envelope, exactly as CachedPage.record has it
        geom = self._geometry = decode_record_body(payload, entry[1], entry[2:])
        self._payload = None
        return geom

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._values() == other._values()  # type: ignore

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return type(self).__name__ + repr(self._values())

    def __getstate__(self) -> Tuple[None, Dict[str, Any]]:
        state = {name: getattr(self, name) for cls in type(self).__mro__
                 for name in getattr(cls, "__slots__", ())}
        payload = state["_payload"]
        if payload is not None:  # the record's frame on a one-slot page
            record_id, offset, *mbr = slot_entry(payload, state["_slot"])
            frame = record_frame(payload, offset)
            state["_payload"] = encode_page_v2([(record_id, Envelope(*mbr), frame)])
            state["_slot"] = 0
        return None, state


class QueryHit(_Hit):
    """One record matched by a store query.  ``generation`` is the
    generation whose container holds the returned version (0 = base)."""

    __slots__ = ("_record_id", "_partition_id", "_page_id", "_generation")
    _fields = ("record_id", "geometry", "partition_id", "page_id", "generation")

    def __init__(self, record_id: int, geometry: Geometry, partition_id: int, page_id: int,
                 generation: int = 0) -> None:
        self._record_id = record_id
        self._geometry = geometry
        self._payload = self._slot = None
        self._partition_id = partition_id
        self._page_id = page_id
        self._generation = generation

    record_id = property(attrgetter("_record_id"))
    partition_id = property(attrgetter("_partition_id"))
    page_id = property(attrgetter("_page_id"))
    generation = property(attrgetter("_generation"))


class DistributedHit(_Hit):
    """One de-duplicated record matched by a distributed query — a slotted,
    immutable value whose geometry, like its shard hit's, may be decoded
    on first read (see :class:`~repro.store.engine.QueryHit`)."""

    __slots__ = ("_query_id", "_record_id", "_shard_id", "_partition_id", "_page_id")
    _fields = ("query_id", "record_id", "geometry", "shard_id", "partition_id", "page_id")

    def __init__(self, query_id: Any, record_id: int, geometry: Geometry, shard_id: int,
                 partition_id: int, page_id: int) -> None:
        self._query_id = query_id
        self._record_id = record_id
        self._geometry = geometry
        self._payload = self._slot = None
        self._shard_id = shard_id
        self._partition_id = partition_id
        self._page_id = page_id

    query_id = property(attrgetter("_query_id"))
    record_id = property(attrgetter("_record_id"))
    shard_id = property(attrgetter("_shard_id"))
    partition_id = property(attrgetter("_partition_id"))
    page_id = property(attrgetter("_page_id"))


def _matched(query_id: Any, shard_id: int, hits: List[QueryHit]) -> List[DistributedHit]:
    """*hits* as matched by *query_id* on *shard_id*, in order, each body
    (decoded or not) handed through as it stands.  The slots are stored
    directly: this runs once per hit on every serving rank."""
    out = []
    new = DistributedHit.__new__
    for hit in hits:
        dist = new(DistributedHit)
        # the payload first: a decode stores the geometry, then drops the payload
        dist._payload, dist._geometry, dist._slot = hit._payload, hit._geometry, hit._slot
        dist._query_id, dist._record_id, dist._shard_id = query_id, hit._record_id, shard_id
        dist._partition_id, dist._page_id = hit._partition_id, hit._page_id
        out.append(dist)
    return out


@dataclass(frozen=True)
class PlanEntry:
    """One query of a batch after the filter phase."""

    #: index of the query in the input batch (results go back to this slot)
    position: int
    query_id: Any
    #: the query window's envelope (the filter key)
    env: Envelope
    #: the exact window geometry, or ``None`` when the window is a rectangle
    geom: Optional[Geometry]
    #: candidate ``(generation, page) -> slots`` from the packed indexes
    by_page: Dict[PageKey, List[int]]


@dataclass
class QueryPlan:
    """A batch's filter-phase output: everything the I/O and refine stages
    need, with no page fetched yet."""

    entries: List[PlanEntry]
    #: evaluation order over ``entries`` (space-filling-curve locality)
    visit_order: List[int]
    #: sorted distinct ``(generation, page)`` keys the whole batch touches
    touched_pages: List[PageKey]


@dataclass
class BatchOutcome:
    """Result of :meth:`SpatialDataStore.query_outcome
    <repro.store.datastore.SpatialDataStore.query_outcome>`, the store's one
    stage loop — the hit lists plus an explicit account of what could
    **not** be served.

    ``complete`` is ``True`` exactly when every planned candidate page was
    fetched and refined; a partial outcome records the unserved pages with
    their causes, the partitions those pages belong to, and which batch
    positions may therefore be missing records.
    """

    #: one hit list per query, in input order (possibly partial)
    hits: List[List["QueryHit"]]
    complete: bool
    #: unserved ``(page, cause)`` pairs, one per distinct page, sorted by key
    failed_pages: List[Tuple[PageKey, Exception]] = field(default_factory=list)
    #: distinct partitions owning the failed pages (sorted; ``-1`` = unknown)
    missing_partitions: List[int] = field(default_factory=list)
    #: batch positions whose hit list may be missing records
    incomplete_queries: List[int] = field(default_factory=list)


class QueryPlanner:
    """Filter phase: windows → :class:`QueryPlan`.

    There is one prune, and the index does it: a generation's packed index
    bounds every record it holds, so its root test rejects a window that
    misses the generation and its levels select the exact ``(generation,
    page, slot)`` candidates.  (The manifest's partition data-MBRs are
    unions of those same record envelopes — a pre-scan over them could only
    repeat, more loosely, what the root decides in one comparison.)  A delta
    generation is skipped on its data extent without entering its index.
    Queries pruned to nothing simply produce no plan entry — their result
    slot stays an empty list.
    """

    def __init__(
        self,
        manifest: StoreManifest,
        index: STRtree,
        deltas: Sequence["Generation"] = (),
    ) -> None:
        self.manifest = manifest
        self.index = index
        #: delta generations (gen id >= 1), each with its own packed index
        self.deltas = list(deltas)

    # ------------------------------------------------------------------ #
    def candidate_slots(self, query_env: Envelope) -> Dict[PageKey, List[int]]:
        """Candidate ``(generation, page) -> slots`` for one window, from
        the per-generation packed indexes (pages and slots in index order)."""
        by_page: Dict[PageKey, List[int]] = {}
        _group_by_page(by_page, 0, self.index.query(query_env))
        for gen in self.deltas:
            if gen.extent.intersects(query_env):
                _group_by_page(by_page, gen.gen_id, gen.index.query(query_env))
        return by_page

    def plan(
        self, queries: Sequence[Tuple[Any, Union[Envelope, Geometry]]]
    ) -> QueryPlan:
        """Plan a batch of ``(query_id, window)`` queries.

        Windows may be plain envelopes or arbitrary geometries (the geometry
        is kept for the refine stage; its envelope drives the filter).  The
        visit order Hilbert-sorts the surviving windows by centre so
        consecutive queries touch neighbouring pages.
        """
        entries: List[PlanEntry] = []
        for position, (query_id, window) in enumerate(queries):
            if isinstance(window, Geometry):
                env: Envelope = window.envelope
                geom: Optional[Geometry] = window
            else:
                env, geom = window, None
            if env.is_empty:
                continue
            by_page = self.candidate_slots(env)
            if by_page:
                entries.append(PlanEntry(position, query_id, env, geom, by_page))

        visit_order = spatial_visit_order(
            [entry.env.centre for entry in entries], self.manifest.extent
        )
        touched_pages = sorted({key for entry in entries for key in entry.by_page})
        return QueryPlan(entries, visit_order, touched_pages)


def _group_by_page(
    by_page: Dict[PageKey, List[int]], generation: int, refs: Iterable[Tuple[int, int]]
) -> None:
    """Fold one generation's candidates into *by_page*: one key per page."""
    slots_of: Dict[int, List[int]] = {}
    for page_id, slot in refs:
        if page_id in slots_of:
            slots_of[page_id].append(slot)
        else:
            slots_of[page_id] = [slot]
    for page_id, slots in slots_of.items():
        by_page[PageKey(generation, page_id)] = slots


#: newest generation first, then page id — the shadowing walk order
def _newest_first(key: PageKey) -> Tuple[int, int]:
    return (-key[0], key[1])


_by_record_id = attrgetter("_record_id")


_EMPTY_SET: frozenset = frozenset()


class RefineExecutor:
    """Refine phase over one plan entry's candidate slots.

    A record id already seen is skipped (envelope column) **before** any
    decode, and only surviving slots are ever WKB/pickle-decoded (memoised
    per cached page).  The writers store each record once per generation,
    so one generation's candidates name each record once; the record-id
    de-dup stays because an id still repeats across generations (an update
    stacks a newer version — the newest wins), and in a one-shard store
    written before records were stored once, whose copies it drops.
    Candidate pages are walked **newest generation first** so when a record id occurs in several generations the newest
    version wins (generation shadowing), and record ids tombstoned by a
    newer generation are dropped before any decode.  When the window is a
    plain rectangle, a slot MBR contained in the window bounds its geometry
    inside the window too, and a tight MBR with one whole side inside the
    window holds a vertex inside it, so the exact predicate is provably
    true without evaluating it — only valid for rectangles, which is why
    :class:`PlanEntry` keeps non-rectangular window geometries explicit.

    Since PR 9 the filter runs **page-at-a-time with bulk operations**
    instead of per-slot Python work:

    * record-id de-dup and tombstone shadowing are set operations over the
      page's id column (``fresh = page_ids - seen``, ``live = fresh -
      shadow``) — valid because a record id occurs at most once per page;
    * the tombstone shadow for each generation (``{id: tombstoned by a
      generation newer than g}``) is computed once and cached — the
      tombstone map of an open store is immutable (appends require a
      reopen), so the cache can never go stale;
    * window containment is a page-level summary check first (window ⊇
      page column bounds → every slot contained, zero per-slot work) and
      otherwise **one** pass over the survivors that reads the four
      coordinate columns and sorts each slot into ``proven`` or ``check``;
    * emission probes the page's decode memo inline and builds one
      :class:`QueryHit` per hit — a slot costs a call only when it must be
      decoded (:meth:`CachedPage.record`, so ``records_decoded`` stays
      exact) or checked (``predicates.intersects``, once per checked
      survivor); a proven, undecoded slot's hit decodes itself when read.

    The loops therefore touch **no per-slot object** — array reads, set
    probes and comparisons over locals; a window touches a few slots on
    each of a few pages, so per-page helper calls and intermediate masks
    cost more than they save (measured on ``serve_warm``).  The per-slot
    scalar loop this replaced lives on as the correctness oracle of the
    property battery and the benchmarks
    (``tests/store/_refine_reference.py``).
    """

    def __init__(
        self,
        partition_of_page: Dict[PageKey, int],
        tombstone_gen: Optional[Dict[int, int]] = None,
        store: Optional["SpatialDataStore"] = None,
    ) -> None:
        self._partition_of_page = partition_of_page
        #: record id -> newest generation that tombstoned it
        self._tombstone_gen = tombstone_gen or {}
        #: optional owning store: its stats are charged slots_scanned /
        #: bulk_filter_batches and its tracer records the ``decode`` spans
        #: (a store hands its own executor a :func:`weakref.proxy` of itself)
        self._store = store
        #: generation -> frozenset of record ids shadowed at that generation
        self._shadow_cache: Dict[int, frozenset] = {}

    def _shadow(self, generation: int) -> frozenset:
        """Record ids tombstoned by a generation newer than *generation*."""
        if not self._tombstone_gen:
            return _EMPTY_SET
        shadow = self._shadow_cache.get(generation)
        if shadow is None:
            shadow = self._shadow_cache[generation] = frozenset(
                rid
                for rid, tg in self._tombstone_gen.items()
                if tg > generation
            )
        return shadow

    def _surviving_slots(
        self,
        page: CachedPage,
        slots: Sequence[int],
        generation: int,
        seen: set,
    ) -> Tuple[Sequence[int], int, int]:
        """Bulk de-dup + tombstone shadowing for one page's candidates.

        Returns ``(survivors, superseded, tombstone_drops)`` and
        folds the surviving ids into *seen*.  All set operations — zero
        per-slot dict probes on the common paths.
        """
        slot_ids = list(map(page.record_ids.__getitem__, slots))
        nslots = len(slots)
        page_ids = set(slot_ids)
        if len(page_ids) != nslots:
            # a record id repeated *within* one page cannot come from the
            # writers (pages never span partitions); only a hand-built plan
            # can do this — preserve first-encounter-wins slot order
            shadow = self._shadow(generation)
            survivors: List[int] = []
            superseded = tombs = 0
            for slot, rid in zip(slots, slot_ids):
                if rid in seen:
                    superseded += 1
                elif rid in shadow:
                    tombs += 1
                else:
                    seen.add(rid)
                    survivors.append(slot)
            return survivors, superseded, tombs
        fresh = page_ids - seen if seen else page_ids
        shadow = self._shadow(generation)
        live = fresh - shadow if shadow else fresh
        nlive = len(live)
        superseded = nslots - len(fresh)
        tombs = len(fresh) - nlive
        if not nlive:
            return [], superseded, tombs
        seen |= live
        if nlive == nslots:
            return slots, superseded, tombs
        return (
            [slot for slot, rid in zip(slots, slot_ids) if rid in live],
            superseded,
            tombs,
        )

    def refine(
        self,
        entry: PlanEntry,
        pages: Dict[PageKey, CachedPage],
        exact: bool,
    ) -> List["QueryHit"]:
        """Refine one plan entry against its fetched *pages*: **classify,
        then emit**.  Per page, the surviving slots split into ``proven``
        (the predicate holds without evaluating it, or the query is
        MBR-only) and ``check`` (decode + exact predicate).  A rectangular
        window proves a slot from the envelope column in two ways: page-level
        or per-slot MBR **containment**, and the **side proof** — one whole
        side of the slot's MBR inside the closed window.  The writers' gate
        makes the stored MBR tight, so the vertex attaining that bound lies
        in the window and the predicate would answer True through its vertex
        test; an empty, inverted or NaN MBR never passes either proof.

        A proven hit whose slot is not yet decoded is emitted undecoded: it
        carries the page's payload and the slot and decodes its record when
        its geometry is first read (:class:`QueryHit`).  Checked slots, and
        every hit of an MBR-only batch, decode through the page's memo: an
        MBR-only hit is a candidate whose geometry its caller reads next
        (to refine it by its own predicate), and the memo decodes a record
        shared by several windows once, where undecoded hits would decode it
        once each.

        Under a recording tracer the call is one ``decode`` span accounting
        every skip/drop/proof decision.  Its ``records_decoded`` is the
        :class:`~repro.store.datastore.StoreStats` movement of this entry
        (charged through the page's decode callback: the refine loop's own
        decodes, never a later ``.geometry`` read), so EXPLAIN's refine
        section can never disagree with the stats delta; ``slots_scanned``
        and ``bulk_filter_batches`` are how an EXPLAIN report shows the bulk
        filter's selectivity.
        """
        store = self._store
        # read at call time: explain() swaps the store's tracer
        tracer = store.tracer if store is not None else NULL_TRACER
        if tracer.enabled:
            decoded_before = store.stats.records_decoded

        # a rectangular window is its own refine operand: the predicate
        # takes the envelope as the closed rectangle, no polygon is built
        refine_geom: Union[Geometry, Envelope, None] = None
        use_rect = False
        if exact:
            refine_geom = entry.geom
            if refine_geom is None:
                refine_geom = entry.env
                use_rect = not refine_geom.is_empty
                wx0, wy0, wx1, wy1 = refine_geom.as_tuple()

        hits: List[QueryHit] = []
        emit = hits.append
        seen: set = set()
        part_of = self._partition_of_page
        slots_scanned = batches = superseded = tombs = shortcuts = side_proofs = 0
        with tracer.span("decode", query_id=entry.query_id) as span:
            for key in sorted(entry.by_page, key=_newest_first):
                slots = entry.by_page[key]
                slots_scanned += len(slots)
                batches += 1
                if not slots:
                    continue
                page = pages[key]
                partition_id = part_of.get(key, -1)
                generation, page_id = key
                survivors, page_superseded, page_tombs = self._surviving_slots(
                    page, slots, generation, seen
                )
                superseded += page_superseded
                tombs += page_tombs
                if not survivors:
                    continue
                # classify (MBR-only queries keep every survivor proven)
                proven: Sequence[int] = survivors
                check: Sequence[int] = ()
                if use_rect:
                    px0, py0, px1, py1, has_bad = page.env_summary()
                    # page-level containment proves every survivor with no
                    # per-slot envelope work at all
                    if has_bad or not (
                        wx0 <= px0 <= px1 <= wx1 and wy0 <= py0 <= py1 <= wy1
                    ):
                        proven, sided, check = [], [], []
                        minxs, minys = page.minxs, page.minys
                        maxxs, maxys = page.maxxs, page.maxys
                        for slot in survivors:
                            x0, x1 = minxs[slot], maxxs[slot]
                            y0, y1 = minys[slot], maxys[slot]
                            if wx0 <= x0 <= x1 <= wx1:
                                if wy0 <= y0 <= y1 <= wy1:
                                    proven.append(slot)
                                    continue
                                side = y0 <= y1 and (wy0 <= y0 <= wy1 or wy0 <= y1 <= wy1)
                            else:
                                side = x0 <= x1 and wy0 <= y0 <= y1 <= wy1 and (
                                    wx0 <= x0 <= wx1 or wx0 <= x1 <= wx1
                                )
                            (sided if side else check).append(slot)
                        side_proofs += len(sided)
                        shortcuts += len(proven)
                        proven += sided
                    else:
                        shortcuts += len(proven)
                elif refine_geom is not None:
                    # non-rectangular window: decode + exact predicate
                    proven, check = (), survivors
                # emit
                ids, memo, record = page.record_ids, page.memo, page.record
                if exact:
                    for slot in proven:
                        hit = QueryHit(ids[slot], memo[slot], partition_id, page_id, generation)
                        if hit._geometry is None:  # undecoded: it decodes when read
                            hit._payload, hit._slot = page.payload, slot
                        emit(hit)
                else:
                    for slot in proven:
                        geom = memo[slot]
                        if geom is None:
                            geom = record(slot)[1]
                        emit(QueryHit(ids[slot], geom, partition_id, page_id, generation))
                for slot in check:
                    geom = memo[slot]
                    if geom is None:
                        geom = record(slot)[1]
                    if predicates.intersects(refine_geom, geom):
                        emit(QueryHit(ids[slot], geom, partition_id, page_id, generation))
            hits.sort(key=_by_record_id)
            if store is not None:
                store.stats.slots_scanned += slots_scanned
                store.stats.bulk_filter_batches += batches
            if tracer.enabled:
                span.set(
                    superseded=superseded,
                    tombstone_drops=tombs,
                    records_decoded=store.stats.records_decoded - decoded_before,
                    rect_shortcuts=shortcuts,
                    side_proofs=side_proofs,
                    slots_scanned=slots_scanned,
                    bulk_filter_batches=batches,
                    num_hits=len(hits),
                )
        return hits

