"""EXPLAIN-style reports assembled from recorded spans + stats deltas.

``SpatialDataStore.explain(window)`` and
``DistributedStoreServer.explain_batch(queries)`` answer the question the
ad-hoc counters never could: *where did this one query spend its effort and
what did it touch?*  Rather than a second instrumentation channel, EXPLAIN
re-runs the query under a recording :class:`~repro.obs.trace.Tracer` and
reads the answer off the span hierarchy plus the
:class:`~repro.store.datastore.StoreStats` delta — so the report can never
drift from what tracing reports, and by construction
``report.stats_delta["records_decoded"]`` equals the stats movement of the
explained query.

Reports render two ways: :meth:`as_dict` for programmatic use (benchmarks,
schema checks) and :meth:`render` / ``str()`` for humans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence

from .trace import as_span_dicts

__all__ = [
    "DistributedExplainReport",
    "ExplainReport",
    "build_distributed_explain",
    "build_store_explain",
]


def _stats_delta(
    before: Mapping[str, float], after: Mapping[str, float]
) -> Dict[str, float]:
    # hit_rate is a ratio, not a counter; a delta of it is meaningless
    return {
        k: after[k] - before.get(k, 0)
        for k in after
        if not k.endswith("hit_rate")
    }


@dataclass
class ExplainReport:
    """Structured account of one store query's plan / schedule / refine."""

    query: Dict[str, Any]
    plan: Dict[str, Any]
    #: one dict per coalesced read run, in issue order
    schedule: List[Dict[str, Any]]
    refine: Dict[str, Any]
    cache: Dict[str, Any]
    stats_delta: Dict[str, float]
    num_hits: int
    spans: List[Dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "query": self.query,
            "plan": self.plan,
            "schedule": self.schedule,
            "refine": self.refine,
            "cache": self.cache,
            "stats_delta": self.stats_delta,
            "num_hits": self.num_hits,
        }

    # ------------------------------------------------------------------ #
    def render(self) -> str:
        q = self.query
        p = self.plan
        r = self.refine
        c = self.cache
        lines = [
            f"EXPLAIN {q.get('kind', 'range_query')} window={q.get('window')} "
            f"exact={q.get('exact')}",
            f"  plan: {p.get('partitions_visited', 0)}/{p.get('partitions_total', 0)} "
            f"partitions visited ({p.get('partitions_pruned', 0)} pruned), "
            f"{p.get('candidates', 0)} candidate slots over "
            f"{p.get('generations', 0)} generation(s) "
            f"{p.get('candidates_by_generation', {})}, "
            f"{p.get('touched_pages', 0)} page(s)",
        ]
        if not self.schedule:
            lines.append("  schedule: every touched page already cached — no I/O")
        for i, run in enumerate(self.schedule):
            pages = run.get("pages", [])
            page_str = (
                f"pages {pages[0]}..{pages[-1]}" if pages else "no pages"
            )
            lines.append(
                f"  schedule run {i}: generation {run.get('generation', 0)} "
                f"{page_str} ({run.get('num_pages', 0)} pages, "
                f"{run.get('nbytes', 0)} B, {run.get('prefetched', 0)} "
                f"prefetched; policy={run.get('policy')} gap={run.get('gap')} "
                f"readahead stop: {run.get('prefetch_stop')})"
            )
        lines.append(
            f"  refine: {r.get('candidates', 0)} candidates, "
            f"{r.get('replicas_skipped', 0)} replica(s) skipped, "
            f"{r.get('tombstone_drops', 0)} tombstone drop(s), "
            f"{r.get('records_decoded', 0)} decoded, "
            f"{r.get('rect_shortcuts', 0)} rect shortcut(s), "
            f"{r.get('side_proofs', 0)} side proof(s) -> {self.num_hits} hit(s)"
        )
        lines.append(
            f"  bulk filter: {r.get('slots_scanned', 0)} slot(s) scanned in "
            f"{r.get('bulk_filter_batches', 0)} page batch(es), selectivity "
            f"{r.get('filter_selectivity', 0.0):.3f}"
        )
        lines.append(
            f"  cache: {c.get('hits', 0)} hit(s) / {c.get('misses', 0)} miss(es) "
            f"during page fetch"
        )
        delta = " ".join(
            f"{k}={v:g}" for k, v in sorted(self.stats_delta.items()) if v
        )
        lines.append(f"  stats delta: {delta or '(none)'}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def build_store_explain(
    *,
    kind: str,
    window: Any,
    exact: bool,
    num_hits: int,
    spans: Sequence[Any],
    stats_before: Mapping[str, float],
    stats_after: Mapping[str, float],
    partitions_total: int,
) -> ExplainReport:
    """Fold one query's recorded spans + stats delta into a report."""
    rows = as_span_dicts(spans)
    plan: Dict[str, Any] = {"partitions_total": partitions_total}
    schedule: List[Dict[str, Any]] = []
    refine: Dict[str, Any] = {
        "candidates": 0,
        "replicas_skipped": 0,
        "tombstone_drops": 0,
        "records_decoded": 0,
        "rect_shortcuts": 0,
        "side_proofs": 0,
        "slots_scanned": 0,
        "bulk_filter_batches": 0,
    }
    cache = {"hits": 0, "misses": 0}
    for row in rows:
        attrs = row["attrs"]
        if row["name"] == "plan":
            plan.update(attrs)
            plan["partitions_pruned"] = partitions_total - attrs.get(
                "partitions_visited", 0
            )
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
    # bulk-filter selectivity: the fraction of scanned candidate slots that
    # survived de-dup + tombstone shadowing (decode-eligible survivors)
    scanned = refine["slots_scanned"]
    survivors = scanned - refine["replicas_skipped"] - refine["tombstone_drops"]
    refine["filter_selectivity"] = (survivors / scanned) if scanned else 0.0
    return ExplainReport(
        query={"kind": kind, "window": window, "exact": exact},
        plan=plan,
        schedule=schedule,
        refine=refine,
        cache=cache,
        stats_delta=_stats_delta(stats_before, stats_after),
        num_hits=num_hits,
        spans=rows,
    )


@dataclass
class DistributedExplainReport:
    """One sharded batch query explained across every rank.

    ``per_rank`` holds each rank's aggregate (records decoded, read
    requests, per-shard query counts); ``shards`` maps shard id to the
    number of batch entries the router kept for it (0-kept shards were
    pruned by their extent); ``spans`` is the connected trace (client spans
    plus every rank's local spans under one trace id).
    """

    query: Dict[str, Any]
    routing: Dict[str, Any]
    shards: Dict[int, Dict[str, Any]]
    per_rank: List[Dict[str, Any]]
    stats_delta: Dict[str, float]
    num_hits: int
    spans: List[Dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "query": self.query,
            "routing": self.routing,
            "shards": self.shards,
            "per_rank": self.per_rank,
            "stats_delta": self.stats_delta,
            "num_hits": self.num_hits,
        }

    def render(self) -> str:
        r = self.routing
        lines = [
            f"EXPLAIN distributed batch: {self.query.get('num_queries', 0)} "
            f"queries over {r.get('num_shards', 0)} shard(s) on "
            f"{r.get('num_ranks', 0)} rank(s)",
            f"  routing: {r.get('shards_visited', 0)} shard(s) visited, "
            f"{r.get('shards_pruned', 0)} pruned by extent",
        ]
        for sid in sorted(self.shards):
            info = self.shards[sid]
            lines.append(
                f"  shard {sid} (rank {info.get('rank')}): "
                f"{info.get('entries', 0)} routed entr(ies), "
                f"{info.get('records_decoded', 0)} decoded, "
                f"{info.get('read_requests', 0)} read request(s)"
            )
        for row in self.per_rank:
            lines.append(
                f"  rank {row.get('rank')}: {row.get('spans', 0)} span(s), "
                f"records_decoded={row.get('records_decoded', 0):g}, "
                f"read_requests={row.get('read_requests', 0):g}, "
                f"cache {row.get('cache_hits', 0):g}/"
                f"{row.get('cache_misses', 0):g} hit/miss"
            )
        scanned = self.stats_delta.get("slots_scanned", 0)
        if scanned:
            decoded = self.stats_delta.get("records_decoded", 0)
            lines.append(
                f"  bulk filter: {scanned:g} slot(s) scanned in "
                f"{self.stats_delta.get('bulk_filter_batches', 0):g} page "
                f"batch(es), selectivity {decoded / scanned:.3f}"
            )
        delta = " ".join(
            f"{k}={v:g}" for k, v in sorted(self.stats_delta.items()) if v
        )
        lines.append(f"  aggregate stats delta: {delta or '(none)'}")
        lines.append(f"  -> {self.num_hits} de-duplicated hit(s)")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def build_distributed_explain(
    *,
    num_queries: int,
    num_hits: int,
    num_shards: int,
    num_ranks: int,
    per_rank_payloads: Sequence[Mapping[str, Any]],
) -> DistributedExplainReport:
    """Assemble the rank-0 report from gathered per-rank payloads.

    Each payload carries ``rank``, ``spans`` (dicts), ``stats_delta`` (the
    rank's summed store-stats movement) and ``shards`` (shard id ->
    per-shard detail for shards the rank served).
    """
    spans: List[Dict[str, Any]] = []
    per_rank: List[Dict[str, Any]] = []
    shards: Dict[int, Dict[str, Any]] = {}
    total: Dict[str, float] = {}
    for payload in per_rank_payloads:
        rank_spans = list(payload.get("spans", []))
        spans.extend(rank_spans)
        delta = dict(payload.get("stats_delta", {}))
        for key, value in delta.items():
            total[key] = total.get(key, 0) + value
        per_rank.append(
            {
                "rank": payload["rank"],
                "spans": len(rank_spans),
                "records_decoded": delta.get("records_decoded", 0),
                "read_requests": delta.get("read_requests", 0),
                "cache_hits": delta.get("cache_hits", 0),
                "cache_misses": delta.get("cache_misses", 0),
            }
        )
        for sid, info in payload.get("shards", {}).items():
            shards[int(sid)] = dict(info)
    visited = sum(1 for info in shards.values() if info.get("entries", 0))
    return DistributedExplainReport(
        query={"num_queries": num_queries},
        routing={
            "num_shards": num_shards,
            "num_ranks": num_ranks,
            "shards_visited": visited,
            "shards_pruned": num_shards - visited,
        },
        shards=shards,
        per_rank=per_rank,
        stats_delta=total,
        num_hits=num_hits,
        spans=sorted(spans, key=lambda s: (s["start"], s["span_id"])),
    )
