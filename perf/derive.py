"""Turn rounds and spans into the named metrics of :mod:`catalog`."""

from __future__ import annotations

import statistics
from functools import partial
from typing import Any, Dict, Optional, Sequence

from catalog import END_TO_END, PER_LAYER
from spans import HARNESS, Recorder
from workloads import CAL_NOMINAL_S, Round

__all__ = ["summary", "end_to_end", "per_layer", "verdict", "accounting_problem"]

_E2E = {m.name: m for m in END_TO_END}


#: per-layer ``*_host_s`` metric -> the span names whose self time it sums
_SELF_TIME = {
    "geometry.wkt_parse_host_s": ("geometry.wkt_parse",),
    "geometry.wkb_decode_host_s": ("geometry.wkb_decode",),
    "geometry.wkb_encode_host_s": ("geometry.wkb_encode",),
    "geometry.predicate_host_s": ("geometry.predicate",),
    "index.strtree_build_host_s": ("index.strtree_build",),
    "index.strtree_query_host_s": ("index.strtree_query",),
    "index.from_packed_host_s": ("index.from_packed",),
    "mpisim.comm_host_s": ("mpisim.p2p", "mpisim.collective", "mpisim.alltoall"),
    "pfs.cost_model_host_s": ("pfs.cost_model", "pfs.write_cost_model"),
    "io.read_host_s": ("io.read",),
    "core.partition_host_s": ("core.partition",),
    "core.grid_assign_host_s": ("core.grid_assign",),
    "core.exchange_host_s": ("core.exchange",),
    "core.refine_host_s": ("core.refine",),
    "store.open_host_s": ("store.open",),
    "store.engine_host_s": ("store.engine",),
    "store.plan_host_s": ("store.plan",),
    "store.schedule_host_s": ("store.schedule",),
    "store.fetch_host_s": ("store.fetch",),
    "store.page_admit_host_s": ("store.page_admit",),
    "store.refine_host_s": ("store.refine",),
    "store.mutable.append_host_s": ("store.append",),
    "store.mutable.compact_host_s": ("store.compact",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summary(name: str, values: Sequence[float], value: Optional[float] = None,
            n: Optional[int] = None) -> Dict[str, Any]:
    """One end-to-end row: the median (or *value*), the quartiles of the
    per-round *values* (inclusive method: with three to fifteen rounds the
    sample is all there is) and the sample count behind the number."""
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else [values[0]] * 3)
    return {"value": statistics.median(values) if value is None else value,
            "unit": _E2E[name].unit, "q1": q1, "q3": q3, "n": len(values) if n is None else n}


def verdict(workload: str, rounds: Sequence[Round], ops: int) -> Dict[str, Any]:
    """Correctness of a run: failed ops and every violated invariant."""
    problems = [p for r in rounds for p in r.problems]
    failed = sum(r.failed for r in rounds)
    drifted = [i for i, r in enumerate(rounds) if r.digest != rounds[0].digest]
    if drifted:
        problems.append(f"result digest of rounds {drifted} differs from round 0")
        failed += ops * len(drifted)
    if len({r.sim_io_s for r in rounds}) > 1:
        problems.append(f"sim_io_s is not exact across rounds: {[r.sim_io_s for r in rounds]}")
    if workload in ("serve_warm", "serve_sharded") and any(r.sim_io_s for r in rounds):
        problems.append(f"{workload} charged simulated I/O; its cache must hold the data")
    if failed:
        problems.append(f"{failed} ops disagree with the oracle")
    return {"attempted": ops * len(rounds), "failed": min(failed, ops * len(rounds)),
            "problems": problems, "digest": rounds[0].digest}


def end_to_end(rounds: Sequence[Round], ops: int, rss_mb: float, failed: int) -> Dict[str, Any]:
    """The end-to-end table of one untraced run (``setup_s`` is the parent's)."""
    out = {
        "host_s": summary("host_s", [r.host_s for r in rounds]),
        "host_ops_per_s": summary("host_ops_per_s", [ops / r.host_s for r in rounds]),
        "sim_makespan_s": summary("sim_makespan_s", [r.sim_s for r in rounds]),
        "sim_ops_per_s": summary("sim_ops_per_s", [ops / r.sim_s for r in rounds]),
        "peak_rss_mb": summary("peak_rss_mb", [rss_mb]),
        "sim_io_s": summary("sim_io_s", [r.sim_io_s for r in rounds]),
        "error_rate": summary("error_rate", [failed / (ops * len(rounds))]),
    }
    pooled = [v for r in rounds for v in r.lat_us]
    if pooled:
        for name, q in (("host_query_p50_us", 0.50), ("host_query_p95_us", 0.95)):
            out[name] = summary(name, [_percentile(r.lat_us, q) for r in rounds],
                                value=_percentile(pooled, q), n=len(pooled))
    batches = [v for r in rounds for v in r.batch_lat_s]
    if batches:
        out["sim_batch_p50_s"] = summary(
            "sim_batch_p50_s", [statistics.median(r.batch_lat_s) for r in rounds],
            value=statistics.median(batches), n=len(batches))
    return out


def per_layer(
    base: Sequence[Round],
    traced: Sequence[Round],
    rec: Recorder,
    ops: int,
    extra_host_s: Dict[str, float],
) -> Dict[str, float]:
    """The per-layer table of one traced run.

    *base* are the untraced rounds of the same run, *traced* the span-traced
    ones; span numbers and counters are medians over the traced rounds.
    *extra_host_s* holds the one-round variants (``armed``, ``obs``,
    ``cost_model_sim_io``, ``single_per_query``) the workload supports.
    """
    med = statistics.median
    totals = list(rec.totals().values())
    # span self times are raw seconds; each traced round has its own factor
    to_calibrated = [CAL_NOMINAL_S / r.cal_s for r in traced]

    def span(key: str, field: int, scales: Sequence[float] = ()) -> float:
        values = [t.get(key, (0, 0.0, 0.0))[field] for t in totals]
        return med([v * k for v, k in zip(values, scales)] if scales else values)

    calls, value = partial(span, field=0), partial(span, field=2)
    self_s = partial(span, field=1, scales=to_calibrated)

    def count(key: str) -> float:
        return med([r.counters.get(key, 0.0) for r in traced])

    base_hosts = [r.host_s for r in base]
    host = med(base_hosts)
    q1, _, q3 = (statistics.quantiles(base_hosts, n=4, method="inclusive")
                 if len(base) > 1 else [host] * 3)
    batch_lat = [v for r in base for v in r.batch_lat_s]

    # counts and virtual-clock shares the rounds carry under their metric name
    out = {m.name: count(m.name) for m in PER_LAYER}
    out.update({name: sum(self_s(key) for key in keys) for name, keys in _SELF_TIME.items()})
    out.update({
        "geometry.wkt_parse_mb_per_host_s":
            _ratio(value("geometry.wkt_parse") / 1e6, out["geometry.wkt_parse_host_s"]),
        "geometry.predicate_calls": calls("geometry.predicate"),
        "geometry.predicate_true_ratio":
            _ratio(value("geometry.predicate"), calls("geometry.predicate")),
        "index.strtree_query_calls": calls("index.strtree_query"),
        "index.strtree_candidates_per_query":
            _ratio(value("index.strtree_query"), calls("index.strtree_query")),
        "mpisim.armed_overhead_ratio": _ratio(extra_host_s.get("armed", 0.0), host),
        "pfs.read_time_calls": calls("pfs.cost_model"),
        "pfs.pread_calls": calls("pfs.pread"),
        "pfs.pread_bytes": value("pfs.pread"),
        "io.read_calls": calls("io.read"),
        "io.read_bytes": value("io.read"),
        "io.read_mb_per_host_s": _ratio(value("io.read") / 1e6, out["io.read_host_s"]),
        "core.exchange_bytes": value("mpisim.alltoall"),
        "store.cache_hit_rate":
            _ratio(count("_cache_hits"), count("_cache_hits") + count("_cache_misses")),
        "store.filter_selectivity":
            _ratio(count("store.hits_returned"), count("store.slots_scanned")),
        "store.coalesce_ratio": _ratio(count("store.pages_read"), count("store.read_requests")),
        "store.read_amp": _ratio(count("store.bytes_read"), count("_hit_wkb_bytes")),
        "store.scheduler.cost_model_sim_io_ratio":
            _ratio(extra_host_s.get("cost_model_sim_io", 0.0), med([r.sim_io_s for r in base])),
        "store.sharded.root_host_share":
            med([_ratio(cpu.get(0, 0.0), sum(cpu.values())) for cpu in rec.rank_cpu().values()]
                or [0.0]),
        "store.sharded.host_overhead_ratio":
            _ratio(host / ops, extra_host_s.get("single_per_query", 0.0)),
        "store.frontend.sim_batch_p95_s": _percentile(batch_lat, 0.95) if batch_lat else 0.0,
        "obs.recording_overhead_ratio": _ratio(extra_host_s.get("obs", 0.0), host),
        "harness.trace_overhead_ratio": med([r.host_s for r in traced]) / host,
        "harness.wall_over_cpu": med([r.wall_s / r.host_s for r in base]),
        "harness.unattributed_host_share": med([
            _ratio(t[f"{HARNESS.layer}.{HARNESS.name}"][1], sum(row[1] for row in t.values()))
            for t in totals]),
        "harness.uncharged_host_share":
            med([1.0 - r.counters["_charged_cpu_s"] / r.host_s for r in base])
            if "_charged_cpu_s" in base[0].counters else 0.0,
        "harness.round_iqr_ratio": (q3 - q1) / host,
        "harness.calibration_s": med([r.cal_s for r in traced]),
    })
    return out


def accounting_problem(traced: Sequence[Round], rec: Recorder) -> Optional[str]:
    """The accounting identity of the traced pass: self times of all spans on
    all threads (root spans included) add up to the round's process CPU.

    Tolerance: 1 % of the round, or 2 ms — ``process_time`` lags by up to a
    scheduler tick for threads still running when it is read, which only
    shows on the millisecond rounds of ``--quick``.
    """
    covered = [sum(row[1] for row in rows.values()) for rows in rec.totals().values()]
    host = [r.host_s * r.cal_s / CAL_NOMINAL_S for r in traced]  # back to raw seconds
    gap = statistics.median(abs(c - h) for c, h in zip(covered, host))
    if gap > max(0.01 * statistics.median(host), 0.002):
        return (f"span self times miss the traced round's process CPU by {gap:.4f} s "
                f"of {statistics.median(host):.4f} s (want 1 %)")
    return None
