"""The dict-fold replica de-dup that ``repro.store.sharded.merge_rows``
replaced (PR 21), kept verbatim as a differential oracle — the way
``_refine_reference.py`` keeps the scalar refine loop.  Its rows still carry
the query id the wire dropped: ``(batch position, query id, record id, shard,
partition, page, geometry)``.  ``tests/store/test_wire.py`` asserts
``merge_rows == dedup_reference`` on generated replica sets.  Not used by any
serving path.
"""

from typing import Any, Dict, Iterable, List, Tuple

from repro.geometry import Geometry
from repro.store.sharded import DistributedHit

Row = Tuple[int, Any, int, int, int, int, Geometry]


def dedup_reference(rows: Iterable[Row]) -> List[DistributedHit]:
    # keep the deterministic first replica: lowest (shard, partition, page)
    best: Dict[Tuple[int, int], Tuple[int, int, int, Any, Geometry]] = {}
    for idx, qid, record_id, sid, partition_id, page_id, geom in rows:
        key = (idx, record_id)
        cand = (sid, partition_id, page_id, qid, geom)
        if key not in best or cand[:3] < best[key][:3]:
            best[key] = cand
    return [
        DistributedHit(qid, record_id, geom, sid, partition_id, page_id)
        for (idx, record_id), (sid, partition_id, page_id, qid, geom) in sorted(
            best.items()
        )
    ]
