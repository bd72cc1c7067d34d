"""The per-slot scalar refine loop that ``RefineExecutor.refine`` replaced
(PR 9), kept verbatim as a differential oracle — the way
``tests/geometry/_*_reference.py`` keep the retired WKT reader, predicate
kernels and WKB codec.  The property battery asserts ``refine ==
refine_reference`` over generated stores and ``benchmarks/test_hot_path.py``
measures the bulk path's speedup against it.  Not used by any serving path.
"""

from typing import Dict, List, Optional

from repro.geometry import Envelope, Geometry, Polygon, predicates
from repro.store.datastore import QueryHit
from repro.store.engine import PlanEntry, RefineExecutor
from repro.store.format import PageKey
from repro.store.page import CachedPage


def refine_reference(
    executor: RefineExecutor,
    entry: PlanEntry,
    pages: Dict[PageKey, CachedPage],
    exact: bool,
) -> List[QueryHit]:
    refine_geom: Optional[Geometry] = None
    rect_window: Optional[Envelope] = None
    if exact:
        if entry.geom is None:
            refine_geom, rect_window = Polygon.from_envelope(entry.env), entry.env
        else:
            refine_geom = entry.geom

    hits: List[QueryHit] = []
    seen: set = set()
    for key in sorted(entry.by_page, key=lambda k: (-k[0], k[1])):
        page = pages[key]
        partition_id = executor._partition_of_page.get(key, -1)
        generation, page_id = key
        for slot in entry.by_page[key]:
            record_id = page.record_ids[slot]
            # replicas of one record (same or older generation) are
            # identical or shadowed: the first encounter decides
            if record_id in seen:
                continue
            if executor._tombstone_gen.get(record_id, -1) > generation:
                continue
            seen.add(record_id)
            _, geom = page.record(slot)
            if refine_geom is not None:
                contained = rect_window is not None and rect_window.contains(
                    page.envelope(slot)
                )
                if not contained and not predicates.intersects(refine_geom, geom):
                    continue
            hits.append(QueryHit(record_id, geom, partition_id, page_id, generation))
    hits.sort(key=lambda h: h.record_id)
    return hits
