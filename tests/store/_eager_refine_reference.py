"""``RefineExecutor.refine`` as it was before the side proof and
decode-on-access hits, kept verbatim (as a function over the executor) as a
differential oracle — the way ``_refine_reference.py`` keeps the scalar loop
before it.

This loop proves a hit only by MBR *containment* in a rectangular window
and decodes every hit it returns.  ``tests/store/test_side_proof_oracle.py``
asserts that the live loop returns the same hits, and the same geometries
once they are read.  Not used by any serving path.
"""

from typing import Dict, List, Sequence, Union

from repro.geometry import Envelope, Geometry, predicates
from repro.obs.trace import NULL_TRACER
from repro.store.engine import PlanEntry, QueryHit, RefineExecutor, _newest_first
from repro.store.format import PageKey
from repro.store.page import CachedPage


def eager_refine(
    self: RefineExecutor,
    entry: PlanEntry,
    pages: Dict[PageKey, CachedPage],
    exact: bool,
) -> List[QueryHit]:
    """Refine one plan entry against its fetched *pages*: **classify,
    then emit**.  Per page, the surviving slots split into ``proven``
    (the predicate holds without evaluating it: page-level or per-slot
    MBR containment in a rectangular window, or an MBR-only query) and
    ``check`` (decode + exact predicate); both are emitted as decoded
    records (a hit is a value: it outlives the page and crosses ranks).

    Under a recording tracer the call is one ``decode`` span accounting
    every skip/drop/shortcut decision.  Its ``records_decoded`` is the
    :class:`~repro.store.datastore.StoreStats` movement of this entry
    (charged through the page's decode callback), so EXPLAIN's refine
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
    slots_scanned = batches = superseded = tombs = shortcuts = 0
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
                px0, py0, px1, py1, has_empty = page.env_summary()
                # page-level containment proves every survivor with no
                # per-slot envelope work at all; an empty slot MBR (its
                # ±inf sentinels pass the bounds vacuously) or a NaN is
                # never contained, exactly as Envelope.contains has it
                if has_empty or not (
                    wx0 <= px0 <= px1 <= wx1 and wy0 <= py0 <= py1 <= wy1
                ):
                    proven, check = [], []
                    minxs, minys = page.minxs, page.minys
                    maxxs, maxys = page.maxxs, page.maxys
                    for slot in survivors:
                        if (
                            wx0 <= minxs[slot] <= maxxs[slot] <= wx1
                            and wy0 <= minys[slot] <= maxys[slot] <= wy1
                        ):
                            proven.append(slot)
                        else:
                            check.append(slot)
                shortcuts += len(proven)
            elif refine_geom is not None:
                # non-rectangular window: decode + exact predicate
                proven, check = (), survivors
            # emit
            ids, memo, record = page.record_ids, page.memo, page.record
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
        hits.sort(key=lambda hit: hit.record_id)
        if store is not None:
            store.stats.slots_scanned += slots_scanned
            store.stats.bulk_filter_batches += batches
        if tracer.enabled:
            span.set(
                superseded=superseded,
                tombstone_drops=tombs,
                records_decoded=store.stats.records_decoded - decoded_before,
                rect_shortcuts=shortcuts,
                slots_scanned=slots_scanned,
                bulk_filter_batches=batches,
                num_hits=len(hits),
            )
    return hits
