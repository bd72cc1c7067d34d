"""The row-tuple gather path that ``repro.store.sharded.merge_chunks``
replaced, kept verbatim as a differential oracle — the way
``_dedup_reference.py`` keeps the dict fold before it.

A serving rank used to re-tuple every engine hit into a :data:`Row`
(``ShardRows.add_hits``), and rank 0 sorted every gathered row
(``merge_rows``).  Now a rank ships the engine's hit lists as
``(batch position, shard, hits)`` chunks; :func:`chunk_rows` is the retired
row building over such chunks.  ``tests/store/test_wire.py`` asserts
``merge_chunks == merge_rows`` on generated chunk sets.  Not used by any
serving path.
"""

from itertools import chain
from operator import itemgetter
from typing import Any, Iterable, List, Sequence, Tuple

from repro.geometry import Geometry
from repro.store.sharded import DistributedHit

#: one matched record on the wire: ``(batch position, record id, shard,
#: partition, page, geometry)`` — the query id stays with rank 0's batch
Row = Tuple[int, int, int, int, int, Geometry]


def chunk_rows(chunks: Iterable[Tuple[int, int, Sequence[Any]]]) -> List[Row]:
    """One rank's rows, built per chunk as the retired ``add_hits`` did."""
    rows: List[Row] = []
    for idx, sid, hits in chunks:
        rows.extend(
            [(idx, h.record_id, sid, h.partition_id, h.page_id, h.geometry) for h in hits]
        )
    return rows


def merge_rows(payloads: Iterable[List[Row]], qids: Sequence[Any]) -> List[DistributedHit]:
    """De-duplicate gathered rows on ``(batch position, record id)``: one
    sort on the id columns, the first row of each run kept — the lowest
    ``(shard, partition, page)`` replica wins by construction.  *qids* maps
    a batch position to its query id, which never travelled."""
    hits: List[DistributedHit] = []
    last = None
    # the key stops at the page column: geometries are never compared
    for row in sorted(chain.from_iterable(payloads), key=itemgetter(0, 1, 2, 3, 4)):
        if row[:2] != last:
            last = row[:2]
            idx, record_id, sid, partition, page, geom = row
            hits.append(DistributedHit(qids[idx], record_id, geom, sid, partition, page))
    return hits
