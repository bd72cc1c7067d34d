"""EXPLAIN-style reports assembled from recorded spans + stats deltas.

``SpatialDataStore.explain(window)`` and
``DistributedStoreServer.explain_batch(queries)`` answer the question the
ad-hoc counters never could: *where did this query spend its effort and
what did it touch?*  Rather than a second instrumentation channel, EXPLAIN
re-runs the query under a recording :class:`~repro.obs.trace.Tracer` and
reads the answer off the span hierarchy plus the
:class:`~repro.store.datastore.StoreStats` delta — so the report can never
drift from what tracing reports, and by construction
``report.stats_delta["records_decoded"]`` equals the stats movement of the
explained query.

There is one report and one builder: a distributed batch's report is the
same fold over every rank's spans, with its routing, per-shard and per-rank
sections filled in.  Reports render two ways: :meth:`ExplainReport.as_dict`
for programmatic use (benchmarks, schema checks) and
:meth:`ExplainReport.render` / ``str()`` for humans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from .metrics import summed
from .trace import as_span_dicts

__all__ = ["ExplainReport", "build_explain", "stats_movement"]


def stats_movement(before: Mapping[str, float], after: Mapping[str, float]) -> Dict[str, float]:
    """Counter movement from *before* to *after* (StoreStats keys)."""
    # hit_rate is a ratio, not a counter; a delta of it is meaningless
    return {k: after[k] - before.get(k, 0) for k in after if not k.endswith("hit_rate")}


@dataclass
class ExplainReport:
    """Structured account of a query's plan / schedule / refine.

    A distributed batch's report also fills ``routing`` (shards visited and
    pruned by extent), ``shards`` (shard id -> its serving rank, routed
    entries and stats delta, stores retired by failover included) and
    ``per_rank`` (each rank's span count and stats delta); ``spans`` is then
    the connected trace of every rank.
    """

    query: Dict[str, Any]
    plan: Dict[str, Any]
    #: one dict per data sieve (``io`` span), in issue order
    schedule: List[Dict[str, Any]]
    refine: Dict[str, Any]
    cache: Dict[str, Any]
    stats_delta: Dict[str, float]
    num_hits: int
    spans: List[Dict[str, Any]] = field(default_factory=list)
    routing: Dict[str, Any] = field(default_factory=dict)
    shards: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    per_rank: List[Dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        out = {
            "query": self.query,
            "plan": self.plan,
            "schedule": self.schedule,
            "refine": self.refine,
            "cache": self.cache,
            "stats_delta": self.stats_delta,
            "num_hits": self.num_hits,
        }
        if self.routing:
            out.update(routing=self.routing, shards=self.shards, per_rank=self.per_rank)
        return out

    # ------------------------------------------------------------------ #
    def render(self) -> str:
        q = self.query
        p = self.plan
        r = self.refine
        c = self.cache
        lines = [
            f"EXPLAIN {q.get('kind')} "
            + " ".join(f"{k}={v}" for k, v in q.items() if k != "kind")
        ]
        if self.routing:
            route = self.routing
            lines.append(
                f"  routing: {route['shards_visited']}/{route['num_shards']} shard(s) "
                f"visited ({route['shards_pruned']} pruned by extent) on "
                f"{route['num_ranks']} rank(s)"
            )
        for sid, info in sorted(self.shards.items()):
            lines.append(
                f"  shard {sid} (rank {info['rank']}): {info['entries']} routed "
                f"entr(ies), {info.get('records_decoded', 0):g} decoded, "
                f"{info.get('read_requests', 0):g} read request(s)"
            )
        for row in self.per_rank:
            lines.append(
                f"  rank {row['rank']}: {row['spans']} span(s), "
                f"{row.get('records_decoded', 0):g} decoded, "
                f"{row.get('read_requests', 0):g} read request(s), cache "
                f"{row.get('cache_hits', 0):g}/{row.get('cache_misses', 0):g} hit/miss"
            )
        lines.append(
            f"  plan: {p.get('partitions_visited', 0)}/{p['partitions_total']} "
            f"partitions visited ({p['partitions_pruned']} pruned), "
            f"{p.get('candidates', 0)} candidate slots over "
            f"{len(p.get('candidates_by_generation', {}))} generation(s) "
            f"{p.get('candidates_by_generation', {})}, "
            f"{p.get('touched_pages', 0)} page(s)"
        )
        if not self.schedule:
            lines.append("  schedule: every touched page already cached — no I/O")
        for i, run in enumerate(self.schedule):
            pages = run.get("pages", [])
            page_str = f"pages {pages[0]}..{pages[-1]}" if pages else "no pages"
            lines.append(
                f"  schedule run {i}: generation {run.get('generation', 0)} "
                f"{page_str} ({run.get('num_pages', 0)} pages, "
                f"{run.get('nbytes', 0)} B, {run.get('prefetched', 0)} "
                f"prefetched; policy={run.get('policy')} "
                f"readahead stop: {run.get('prefetch_stop')})"
            )
        lines.append(
            f"  refine: {r['candidates']} candidates, "
            f"{r['superseded']} superseded, "
            f"{r['tombstone_drops']} tombstone drop(s), "
            f"{r['records_decoded']} decoded, "
            f"{r['rect_shortcuts']} rect shortcut(s), "
            f"{r['side_proofs']} side proof(s) -> {self.num_hits} hit(s)"
        )
        lines.append(
            f"  bulk filter: {r['slots_scanned']} slot(s) scanned in "
            f"{r['bulk_filter_batches']} page batch(es), selectivity "
            f"{r['filter_selectivity']:.3f}"
        )
        lines.append(f"  cache: {c['hits']} hit(s) / {c['misses']} miss(es) during page fetch")
        delta = " ".join(f"{k}={v:g}" for k, v in sorted(self.stats_delta.items()) if v)
        lines.append(f"  stats delta: {delta or '(none)'}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def build_explain(
    *,
    query: Dict[str, Any],
    num_hits: int,
    spans: Sequence[Any],
    stats_delta: Dict[str, float],
    partitions_total: int,
    shards: Optional[Dict[int, Dict[str, Any]]] = None,
    per_rank: Sequence[Dict[str, Any]] = (),
) -> ExplainReport:
    """Fold recorded *spans* (one store's, or every rank's of a distributed
    batch) and the run's *stats_delta* into a report.

    Plan attributes are summed over every ``plan`` span (one per store
    batch: each shard's, each failover replay's); ``io`` spans become the
    schedule in the order given (each tracer records them in issue order;
    a distributed batch passes rank after rank).  A distributed batch also
    passes its *shards* rows (each with ``rank`` and routed ``entries``)
    and *per_rank* rows, and the routing section is derived from them.
    """
    rows = as_span_dicts(spans)
    plan: Dict[str, Any] = {"partitions_total": partitions_total}
    schedule: List[Dict[str, Any]] = []
    refine: Dict[str, Any] = dict.fromkeys(
        (
            "candidates", "superseded", "tombstone_drops", "records_decoded",
            "rect_shortcuts", "side_proofs", "slots_scanned", "bulk_filter_batches",
        ),
        0,
    )
    cache = {"hits": 0, "misses": 0}
    for row in rows:
        attrs = row["attrs"]
        if row["name"] == "plan":
            for key, value in attrs.items():
                if isinstance(value, dict):
                    plan[key] = summed([plan.get(key, {}), value])
                else:
                    plan[key] = plan.get(key, 0) + value
        elif row["name"] == "schedule":
            cache["hits"] += attrs.get("cache_hits", 0)
            cache["misses"] += attrs.get("cache_misses", 0)
        elif row["name"] == "io":
            schedule.append(dict(attrs))
        elif row["name"] == "refine":
            refine["candidates"] += attrs.get("candidates", 0)
        elif row["name"] == "decode":
            for key in refine.keys() - {"candidates"}:
                refine[key] += attrs.get(key, 0)
    plan["partitions_pruned"] = partitions_total - plan.get("partitions_visited", 0)
    # bulk-filter selectivity: the fraction of scanned candidate slots that
    # survived de-dup + tombstone shadowing (decode-eligible survivors)
    scanned = refine["slots_scanned"]
    survivors = scanned - refine["superseded"] - refine["tombstone_drops"]
    refine["filter_selectivity"] = (survivors / scanned) if scanned else 0.0
    routing: Dict[str, Any] = {}
    if shards is not None:
        visited = sum(1 for info in shards.values() if info["entries"])
        routing = {
            "num_shards": len(shards),
            "num_ranks": len(per_rank),
            "shards_visited": visited,
            "shards_pruned": len(shards) - visited,
        }
    return ExplainReport(
        query=query,
        plan=plan,
        schedule=schedule,
        refine=refine,
        cache=cache,
        stats_delta=stats_delta,
        num_hits=num_hits,
        spans=rows,
        routing=routing,
        shards=dict(shards or {}),
        per_rank=list(per_rank),
    )
