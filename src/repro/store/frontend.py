"""Async multiplexing front-end over one :class:`DistributedStoreServer`.

``DistributedStoreServer.range_query_batch`` serves one batch at a time:
send → local-query → gather end to end, every serving rank idle while
rank 0 answers its own shards and merges the batch.  :class:`AsyncStoreFrontend`
runs many batches through the server's same serving loop with up to
``max_in_flight`` of them in flight at once, over its tagged point-to-point
messages on the ``mpisim`` virtual clock:

* rank 0 **sends ahead**: while the serving ranks work on batch *b*, it is
  already sending batches *b+1 … b+W*, each whole to every rank (each
  rank picks the queries its shards' extents meet);
* serving ranks run a simple receive → local-query → send loop, so their
  clocks advance through consecutive batches without ever waiting for
  rank 0's gather of an earlier batch;
* completion is windowed: once ``max_in_flight`` batches are outstanding,
  rank 0 serves its own shards' part of the oldest batch, collects the
  peers' :class:`~repro.store.sharded.ShardRows` — finished hit lists, one
  chunk per served query (the virtual arrival times are usually
  already in the past — that is the overlap) — and concatenates them,
  sorting only the positions two chunks both answered.

Because the buffered point-to-point layer stamps every message with its
virtual arrival time, the resulting per-batch latencies and the aggregate
makespan genuinely reflect phase overlap: with ``max_in_flight=1`` the
front-end degenerates to sequential submission — exactly one
``range_query_batch`` per batch — and throughput grows with the window
until rank 0's local query + gather work or the slowest serving rank
saturates.
What the front-end adds is the window, the per-batch virtual-clock metrics
(:class:`BatchMetrics`) and the call's makespan over every rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import Histogram
from .sharded import DistributedStoreServer, Window

__all__ = ["AsyncStoreFrontend", "BatchMetrics", "FrontendResult"]


@dataclass(frozen=True)
class BatchMetrics:
    """Virtual-clock timeline of one batch on rank 0."""

    batch_id: int
    num_queries: int
    num_hits: int
    #: rank-0 virtual time the batch's route phase began
    submitted: float
    #: rank-0 virtual time its gather (the merge) finished
    completed: float

    @property
    def latency(self) -> float:
        return self.completed - self.submitted


@dataclass
class FrontendResult:
    """Rank-0 outcome of one :meth:`AsyncStoreFrontend.serve` call."""

    #: one merged hit list per submitted batch, in submission order
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
        """Per-batch latencies as a log2
        :class:`~repro.obs.metrics.Histogram`, the percentiles of
        :meth:`summary`."""
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
    batches may be sent but not yet gathered; ``1`` reproduces sequential
    submission, larger windows overlap rank 0's local-query/gather phases
    with the serving ranks' local queries.  The batches run through the server's one
    serving loop, so their phase time lands in the server's ``phases``
    breakdown like every other serving call's.
    """

    def __init__(self, server: DistributedStoreServer, max_in_flight: int = 4) -> None:
        if not isinstance(max_in_flight, int) or max_in_flight < 1:
            raise ValueError("max_in_flight must be an integer >= 1")
        self.server = server
        self.max_in_flight = max_in_flight

    def serve(
        self,
        batches: Optional[Sequence[Sequence[Tuple[Any, Window]]]],
        partial_ok: bool = False,
        deadline: Optional[float] = None,
    ) -> Optional[FrontendResult]:
        """Serve many ``[(query_id, window), ...]`` batches, pipelined.

        Collective: rank 0 supplies *batches* (each one a
        ``range_query_batch``-shaped list, whose windows are envelopes or
        geometries) and gets the per-batch hits plus the virtual-clock
        metrics; other ranks pass ``None``.

        ``partial_ok`` / ``deadline`` select degraded-mode serving exactly
        like :meth:`DistributedStoreServer.range_query_batch`; rank 0's
        values win (they ride the call's header broadcast), and each batch
        then yields a :class:`~repro.store.sharded.QueryResult` instead of a
        hit list.
        """
        server = self.server
        clock = server.comm.clock
        start = clock.now
        served = server._serve(batches, self.max_in_flight, partial_ok, deadline)
        spans = server.comm.allgather((start, clock.now))
        if served is None:
            return None
        return FrontendResult(
            batches=[hits for hits, _, _ in served],
            metrics=[
                BatchMetrics(b, len(batch), len(hits), submitted, completed)
                for b, (batch, (hits, submitted, completed)) in enumerate(zip(batches, served))
            ],
            makespan=max(end for _, end in spans) - min(begin for begin, _ in spans),
            max_in_flight=self.max_in_flight,
            windows=[self.max_in_flight] * len(served),
        )
