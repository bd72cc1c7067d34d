"""Span recorder wrapped, from outside, around the public entry points of
each ``repro`` layer.

Nothing under ``src/repro`` knows about it: :func:`install` patches class
attributes in place and replaces module-level functions in every loaded
module's namespace that holds a reference, :func:`uninstall` undoes it.  (A
function captured as a *default argument*, e.g. ``SpatialJoin(predicate=...)``,
is not reachable this way — the workloads pass such callables explicitly.)

A span records its target, thread (= rank), parent span, round id and start /
end on both ``perf_counter`` and ``thread_time``.  Its **self time** is its
thread-CPU duration minus that of its child spans, so self times of all spans
on all threads — the ``harness`` root spans included — add up to the CPU the
process spent in the round.  Spans stay in memory; :meth:`Recorder.write_jsonl`
dumps them when the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
from time import perf_counter, thread_time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["TARGETS", "Target", "Recorder", "SpanError", "install", "uninstall"]


class SpanError(RuntimeError):
    """A wrap target no longer resolves, or never fired where it must."""


class Target(NamedTuple):
    layer: str
    #: span name; the per-layer table keys self times and call counts by it
    name: str
    #: ``module:attr`` or ``module:Class.attr``
    where: str
    #: workloads whose traced pass must record at least one such span
    fires_on: Tuple[str, ...]
    #: optional ``(args, result) -> number`` summed per span name
    value: Optional[Callable[[tuple, Any], float]] = None


_JOIN = ("pipeline_join",)
_STORE = ("serve_warm", "serve_cold", "serve_sharded", "mutate_serve")
_MISSES = ("serve_cold", "mutate_serve")
_MPI = ("pipeline_join", "serve_sharded")
_ALL = _JOIN + _STORE


def _result_len(args: tuple, result: Any) -> float:
    return len(result)


#: The wrap table.  ``fires_on`` is a liveness contract: a refactor that
#: renames or bypasses a target fails the traced pass instead of silently
#: turning a layer metric into 0.
TARGETS: Tuple[Target, ...] = (
    Target("geometry", "wkt_parse", "repro.geometry.wkt:loads", _JOIN,
           lambda args, result: len(args[0])),
    Target("geometry", "wkb_decode", "repro.geometry.wkb:loads", _JOIN + _MISSES),
    Target("geometry", "wkb_encode", "repro.geometry.wkb:dumps", _JOIN + ("mutate_serve",)),
    Target("geometry", "predicate", "repro.geometry.predicates:intersects", _ALL,
           lambda args, result: bool(result)),
    Target("index", "strtree_build", "repro.index.rtree:STRtree.__init__", _JOIN + ("mutate_serve",)),
    Target("index", "strtree_query", "repro.index.rtree:STRtree.query", _ALL, _result_len),
    Target("index", "from_packed", "repro.store.index_io:load_index", _MISSES),
    Target("mpisim", "p2p", "repro.mpisim.comm:Communicator.send", _MPI),
    Target("mpisim", "p2p", "repro.mpisim.comm:Communicator.recv", _MPI),
    *(
        Target("mpisim", "collective", f"repro.mpisim.comm:Communicator.{op}", fires_on)
        for op, fires_on in (
            ("barrier", _JOIN), ("allreduce", _JOIN), ("bcast", ("serve_sharded",)),
            ("allgather", ("serve_sharded",)), ("scatter", ()), ("gather", ()),
            ("reduce", ()), ("scan", ()), ("exscan", ()),
        )
    ),
    # alltoallv forwards to alltoall; the value is the byte-buffer payload
    Target("mpisim", "alltoall", "repro.mpisim.comm:Communicator.alltoall", _JOIN,
           lambda args, result: sum(len(b) for b in args[1] if isinstance(b, bytes))),
    Target("pfs", "cost_model", "repro.pfs.filesystem:SimulatedFilesystem.read_time",
           _JOIN + _MISSES),
    Target("pfs", "write_cost_model", "repro.pfs.filesystem:SimulatedFilesystem.write_time",
           ("mutate_serve",)),
    Target("pfs", "pread", "repro.pfs.filesystem:FileHandle.pread", _JOIN + _MISSES, _result_len),
    Target("io", "read", "repro.io.file:File.read_at", _JOIN, _result_len),
    Target("io", "read", "repro.io.file:File.read_at_nb", (), _result_len),
    Target("io", "read", "repro.io.file:File.read_at_all", (), _result_len),
    Target("core", "partition", "repro.core.partition:MessagePartitioner.read", _JOIN),
    Target("core", "grid_assign", "repro.core.grid_partition:assign_to_cells",
           _JOIN + ("mutate_serve",)),
    Target("core", "exchange", "repro.core.exchange:exchange_cells", _JOIN),
    Target("core", "refine", "repro.core.join:SpatialJoin.refine", _JOIN),
    Target("store", "open", "repro.store.datastore:SpatialDataStore.open", _MISSES),
    Target("store", "engine", "repro.store.datastore:SpatialDataStore.range_query",
           ("serve_warm", "serve_cold", "mutate_serve")),
    Target("store", "engine", "repro.store.datastore:SpatialDataStore.range_query_batch",
           ("serve_sharded",)),
    Target("store", "plan", "repro.store.engine:QueryPlanner.plan", _STORE),
    Target("store", "schedule", "repro.store.scheduler:IOScheduler.schedule", _MISSES),
    Target("store", "fetch", "repro.store.datastore:SpatialDataStore._fetch_missing", _MISSES),
    Target("store", "page_admit", "repro.store.page:CachedPage.__init__", _MISSES),
    Target("store", "refine", "repro.store.engine:RefineExecutor.refine", _STORE),
    Target("store", "append", "repro.store.mutable:StoreAppender.append", ("mutate_serve",)),
    Target("store", "compact", "repro.store.mutable:compact_store", ("mutate_serve",)),
    Target("store", "frontend_serve", "repro.store.frontend:AsyncStoreFrontend.serve",
           ("serve_sharded",)),
)

#: the benchmark's own root spans: one per thread per round, so CPU spent in
#: no layer span still has an owner
HARNESS = Target("harness", "round", "", _ALL)


class Recorder:
    """In-memory span store with thread-local span stacks."""

    def __init__(self) -> None:
        #: (id, parent, target, rank, round, wall0, wall1, cpu0, cpu1, self_cpu, value);
        #: rank is -1 on the main thread
        self.spans: List[tuple] = []
        #: round id stamped on spans at entry; set at a point where every
        #: thread is quiescent (-1 = warm-up, dropped by the analysis)
        self.round = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, target: Target, fn: Callable) -> Callable:
        spans, ids, local, value = self.spans, self._ids, self._local, target.value

        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
                name = threading.current_thread().name
                local.rank = int(name.rpartition("-")[2]) if name.startswith("mpisim-rank-") else -1
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]  # [span id, CPU of finished child spans]
            rnd = self.round
            stack.append(frame)
            wall0 = perf_counter()
            cpu0 = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu1 = thread_time()
                wall1 = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += cpu1 - cpu0
            spans.append((
                frame[0], parent[0] if parent is not None else -1, target, local.rank, rnd,
                wall0, wall1, cpu0, cpu1, cpu1 - cpu0 - frame[1],
                value(args, result) if value is not None else None,
            ))
            return result

        traced.__name__ = getattr(fn, "__name__", target.name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # ------------------------------------------------------------------ #
    def totals(self) -> Dict[int, Dict[str, Tuple[int, float, float]]]:
        """Per timed round: ``layer.name -> (calls, self CPU seconds, summed
        value)`` over all threads."""
        out: Dict[int, Dict[str, List[float]]] = {}
        for span in self.spans:
            if span[4] < 0:
                continue
            target = span[2]
            row = out.setdefault(span[4], {}).setdefault(
                f"{target.layer}.{target.name}", [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span[9]
            row[2] += span[10] or 0
        return {rnd: {key: (int(c), s, v) for key, (c, s, v) in rows.items()}
                for rnd, rows in sorted(out.items())}

    def rank_cpu(self) -> Dict[int, Dict[int, float]]:
        """Per timed round: thread CPU of each rank thread's root span."""
        out: Dict[int, Dict[int, float]] = {}
        for span in self.spans:
            if span[4] >= 0 and span[2] is HARNESS and span[3] >= 0:
                ranks = out.setdefault(span[4], {})
                ranks[span[3]] = ranks.get(span[3], 0.0) + span[8] - span[7]
        return out

    def silent(self, workload: str) -> List[str]:
        """Wrap targets that must fire on *workload* but recorded no span."""
        fired = {s[2].where for s in self.spans if s[4] >= 0}
        return [t.where for t in TARGETS if workload in t.fires_on and t.where not in fired]

    def write_jsonl(self, path: str) -> None:
        keys = ("id", "parent", "rank", "round", "start", "end", "cpu_start", "cpu_end",
                "self_cpu", "value")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                target = span[2]
                row = {"layer": target.layer, "name": target.name, "target": target.where}
                row.update(zip(keys, span[:2] + span[3:]))
                out.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------- #
# patching
# ---------------------------------------------------------------------- #
def _resolve(where: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute name, raw attribute)`` of a wrap target."""
    module_name, _, path = where.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
    except (ImportError, AttributeError, KeyError) as exc:
        raise SpanError(f"wrap target {where!r} no longer resolves: {exc!r}") from exc
    return owner, attr, raw


def install(recorder: Recorder) -> List[Tuple[Any, str, Any]]:
    """Patch every target; returns the undo list for :func:`uninstall`."""
    undo: List[Tuple[Any, str, Any]] = []
    for target in TARGETS:
        owner, attr, raw = _resolve(target.where)
        if isinstance(owner, type):
            if isinstance(raw, (classmethod, staticmethod)):
                new: Any = type(raw)(recorder.wrap(target, raw.__func__))
            else:
                new = recorder.wrap(target, raw)
            undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            continue
        new = recorder.wrap(target, raw)
        for module in list(sys.modules.values()):
            for key, held in list(vars(module).items()) if module is not None else ():
                if held is raw:
                    undo.append((module, key, raw))
                    setattr(module, key, new)
    return undo


def uninstall(undo: List[Tuple[Any, str, Any]]) -> None:
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)
