"""Async multiplexing front-end over one :class:`DistributedStoreServer`.

``DistributedStoreServer.range_query_batch`` is a strict collective: every
batch pays route → scatter → local-query → gather end to end, and every rank
idles while rank 0 routes the next batch or de-duplicates the previous one.
:class:`AsyncStoreFrontend` keeps up to ``max_in_flight`` batches in flight
at once by replacing the scatter/gather collectives with tagged point-to-
point messages on the ``mpisim`` virtual clock:

* rank 0 **routes ahead**: while the serving ranks work on batch *b*, it is
  already planning and scattering batches *b+1 … b+W*;
* serving ranks run a simple receive → local-query → send loop, so their
  clocks advance through consecutive batches without ever waiting for
  rank 0's gather of an earlier batch;
* completion is windowed: once ``max_in_flight`` batches are outstanding,
  rank 0 serves its own shard portion of the oldest batch, collects the
  peers' :class:`~repro.store.sharded.ShardRows` — the engine's hit lists,
  one chunk per served plan entry (the virtual arrival times are usually
  already in the past — that is the overlap) — and de-duplicates, sorting
  only the positions two chunks both answered.

Because the buffered point-to-point layer stamps every message with its
virtual arrival time, the resulting per-batch latencies and the aggregate
makespan genuinely reflect phase overlap: with ``max_in_flight=1`` the
front-end degenerates to sequential submission, and throughput grows with
the window until rank 0's route+gather work or the slowest serving rank
saturates.  Results are bit-identical to sequential
``range_query_batch`` calls — the front-end reuses the server's router, the
per-shard store engines, the wire pricing and the record-id de-dup
(:func:`~repro.store.sharded.merge_chunks`).
"""

from __future__ import annotations

from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..geometry import Envelope
from ..obs.metrics import Histogram
from .sharded import DistributedStoreServer, ShardRows

__all__ = ["AsyncStoreFrontend", "BatchMetrics", "FrontendResult"]

#: tag namespace for the front-end's point-to-point traffic (two tags per
#: batch: plan scatter and result gather)
_TAG_BASE = 0x4153_0000


@dataclass(frozen=True)
class BatchMetrics:
    """Virtual-clock timeline of one batch on rank 0."""

    batch_id: int
    num_queries: int
    num_hits: int
    #: rank-0 virtual time the batch's route phase began
    submitted: float
    #: rank-0 virtual time its gather/de-dup finished
    completed: float

    @property
    def latency(self) -> float:
        return self.completed - self.submitted


@dataclass
class FrontendResult:
    """Rank-0 outcome of one :meth:`AsyncStoreFrontend.serve` call."""

    #: one de-duplicated hit list per submitted batch, in submission order
    #: (a :class:`~repro.store.sharded.QueryResult` per batch when the call
    #: used ``partial_ok`` / ``deadline``)
    batches: List[Any]
    metrics: List[BatchMetrics]
    #: virtual makespan of the whole call (max rank end - min rank start)
    makespan: float
    max_in_flight: int
    #: the window in effect at each batch submission
    #: (``store.frontend.window_mean`` of the benchmark is its mean)
    windows: List[int] = field(default_factory=list)

    @property
    def num_batches(self) -> int:
        return len(self.batches)

    @property
    def total_queries(self) -> int:
        return sum(m.num_queries for m in self.metrics)

    @property
    def batches_per_second(self) -> float:
        return self.num_batches / self.makespan if self.makespan > 0 else float("inf")

    @property
    def queries_per_second(self) -> float:
        return self.total_queries / self.makespan if self.makespan > 0 else float("inf")

    @property
    def mean_latency(self) -> float:
        if not self.metrics:
            return 0.0
        return sum(m.latency for m in self.metrics) / len(self.metrics)

    def latency_histogram(self) -> Histogram:
        """Per-batch latencies as a mergeable log2
        :class:`~repro.obs.metrics.Histogram` (the registry currency — the
        same shape the server's ``frontend.batch_latency_seconds`` metric
        accumulates)."""
        hist = Histogram()
        for m in self.metrics:
            hist.record(m.latency)
        return hist

    def summary(self) -> Dict[str, float]:
        hist = self.latency_histogram()
        return {
            "num_batches": float(self.num_batches),
            "total_queries": float(self.total_queries),
            "makespan_seconds": self.makespan,
            "batches_per_second": self.batches_per_second,
            "queries_per_second": self.queries_per_second,
            "mean_latency_seconds": self.mean_latency,
            "latency_p50_seconds": hist.percentile(50),
            "latency_p95_seconds": hist.percentile(95),
            "latency_p99_seconds": hist.percentile(99),
            "max_in_flight": float(self.max_in_flight),
        }


class AsyncStoreFrontend:
    """Multiplexes many in-flight query batches over one server (collective).

    Every rank of the server's communicator must call :meth:`serve`; rank 0
    supplies the batches and receives a :class:`FrontendResult`, other ranks
    pass ``None`` and receive ``None``.  ``max_in_flight`` bounds how many
    batches may be routed but not yet gathered; ``1`` reproduces sequential
    submission, larger windows overlap rank 0's route/gather phases with the
    serving ranks' local queries.  Phase time is accumulated into the
    server's ``phases`` breakdown exactly like the collective path, so
    ``server.phase_breakdown()`` covers async-served traffic too.
    """

    def __init__(self, server: DistributedStoreServer, max_in_flight: int = 4) -> None:
        if not isinstance(max_in_flight, int) or max_in_flight < 1:
            raise ValueError("max_in_flight must be an integer >= 1")
        self.server = server
        self.max_in_flight = max_in_flight

    # ------------------------------------------------------------------ #
    @staticmethod
    def _plan_tag(batch_id: int) -> int:
        return _TAG_BASE + 2 * batch_id

    @staticmethod
    def _data_tag(batch_id: int) -> int:
        return _TAG_BASE + 2 * batch_id + 1

    def serve(
        self,
        batches: Optional[Sequence[Sequence[Tuple[Any, Envelope]]]],
        partial_ok: bool = False,
        deadline: Optional[float] = None,
    ) -> Optional[FrontendResult]:
        """Serve many ``[(query_id, window), ...]`` batches, pipelined.

        Collective: rank 0 supplies *batches* (each one a
        ``range_query_batch``-shaped list) and gets the per-batch hits plus
        the virtual-clock metrics; other ranks pass ``None``.

        ``partial_ok`` / ``deadline`` select degraded-mode serving exactly
        like :meth:`DistributedStoreServer.range_query_batch`; rank 0's
        values win (they ride the initial broadcast), and each batch then
        yields a :class:`~repro.store.sharded.QueryResult` instead of a hit
        list.
        """
        server = self.server
        comm = server.comm
        clock = comm.clock
        # Validation is collective: the header carries None when rank 0 got
        # no batches, so every rank raises together instead of rank 0 bailing
        # out while its peers block in the bcast (SPMD005).
        header = comm.bcast(
            (len(batches), partial_ok, deadline)
            if comm.rank == 0 and batches is not None
            else None,
            root=0,
        )
        if header is None:
            raise ValueError("rank 0 must supply the batch sequence")
        num_batches, partial_ok, deadline = header
        outcome = partial_ok or deadline is not None
        start = clock.now

        def serve_shards(mine: List[Tuple[int, Any, Envelope]]) -> ShardRows:
            return server._serve_shards(mine, exact=True, collect=outcome, deadline=deadline)

        result: Optional[FrontendResult] = None
        if comm.rank == 0:
            result = self._run_root(
                list(batches), num_batches, start, serve_shards, outcome, partial_ok
            )
        else:
            for b in range(num_batches):
                t = clock.now
                ctx, entries = comm.recv(source=0, tag=self._plan_tag(b))
                server._charge_phase("scatter", t)
                payload = server._local_phase(entries, ctx, serve_shards, batch=b)
                t = clock.now
                comm.send(payload, dest=0, tag=self._data_tag(b))
                server._charge_phase("gather", t)

        end = clock.now
        spans = comm.allgather((start, end))
        if comm.rank == 0 and result is not None:
            result.makespan = max(e for _, e in spans) - min(s for s, _ in spans)
        return result

    # ------------------------------------------------------------------ #
    def _run_root(
        self,
        batches: List[Sequence[Tuple[Any, Envelope]]],
        num_batches: int,
        start: float,
        serve_shards: Callable[[List[Tuple[int, Any, Envelope]]], ShardRows],
        outcome: bool,
        partial_ok: bool,
    ) -> FrontendResult:
        comm = self.server.comm
        clock = comm.clock
        server = self.server
        tracer = server.tracer
        latency_hist = server.metrics.histogram("frontend.batch_latency_seconds")
        window = self.max_in_flight

        results: List[Any] = [[] for _ in range(num_batches)]
        metrics: List[Optional[BatchMetrics]] = [None] * num_batches
        #: (batch_id, rank-0 plan entries, submit time) routed but not gathered
        in_flight: Deque[Tuple[int, List[Tuple[int, Any, Envelope]], float]] = deque()

        def complete_oldest() -> None:
            batch_id, own_entries, submitted = in_flight.popleft()
            payloads = [server._local_phase(own_entries, None, serve_shards, batch=batch_id)]
            t = clock.now
            for rank in range(1, comm.size):
                payloads.append(comm.recv(source=rank, tag=self._data_tag(batch_id)))
            qids = [qid for qid, _ in batches[batch_id]]
            hits = server._gather_phase(
                payloads,
                lambda rows: server._assemble(rows, qids, outcome, partial_ok),
                batch=batch_id,
            )
            server._charge_phase("gather", t)
            results[batch_id] = hits
            metrics[batch_id] = BatchMetrics(
                batch_id=batch_id,
                num_queries=len(batches[batch_id]),
                num_hits=len(hits),
                submitted=submitted,
                completed=clock.now,
            )
            latency_hist.record(metrics[batch_id].latency)

        with ExitStack() as stack:
            if tracer.enabled:
                # one trace for the whole pipelined call: every batch's
                # route/gather and every rank's local_query nest under it
                tracer.new_trace()
                stack.enter_context(
                    tracer.span(
                        "query", phase="frontend", num_batches=num_batches
                    )
                )
            for b in range(num_batches):
                while len(in_flight) >= window:
                    complete_oldest()
                submitted = clock.now
                with tracer.span("route") as rspan:
                    with clock.compute(category="route"):
                        plan = server._plan_windows(batches[b])
                    if tracer.enabled:
                        rspan.set(batch=b, num_queries=len(batches[b]))
                t = server._charge_phase("route", submitted)
                ctx = tracer.context() if tracer.enabled else None
                with tracer.span("scatter") as sspan:
                    for rank in range(1, comm.size):
                        comm.send(
                            (ctx, plan[rank]), dest=rank, tag=self._plan_tag(b)
                        )
                    if tracer.enabled:
                        sspan.set(batch=b)
                server._charge_phase("scatter", t)
                in_flight.append((b, plan[0], submitted))
            while in_flight:
                complete_oldest()

        return FrontendResult(
            batches=results,
            metrics=[m for m in metrics if m is not None],
            makespan=clock.now - start,  # refined with the allgathered spans
            max_in_flight=window,
            windows=[window] * num_batches,
        )
