"""Virtual time for the simulated MPI runtime.

A single-core container cannot reproduce cluster timing with wall clocks, so
every rank carries a :class:`VirtualClock`.  I/O and communication operations
advance it through an explicit :class:`CommCostModel`; compute phases advance
it either explicitly (``clock.advance``) or by measuring the calling thread's
CPU time inside :meth:`VirtualClock.compute` and scaling it with a
calibration factor.  Collectives synchronise clocks (completion time is the
maximum of the participants' entry times plus the operation cost), which is
what produces realistic per-phase breakdowns for the end-to-end figures.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator

__all__ = ["VirtualClock", "CommCostModel"]


@dataclass
class CommCostModel:
    """Linear latency/bandwidth model for interconnect transfers.

    Defaults approximate the paper's COMET cluster: FDR InfiniBand with
    56 Gb/s links (~7 GB/s) and microsecond-scale message latency.
    """

    #: one-way message latency in seconds
    latency: float = 2.0e-6
    #: point-to-point bandwidth in bytes/second
    bandwidth: float = 7.0e9
    #: additional per-byte cost of packing/unpacking (serialisation overhead)
    pack_overhead_per_byte: float = 2.0e-11

    def transfer_time(self, nbytes: int) -> float:
        """Time for a single point-to-point message of *nbytes*."""
        nbytes = max(0, int(nbytes))
        return self.latency + nbytes / self.bandwidth + nbytes * self.pack_overhead_per_byte

    def collective_time(self, nbytes_per_rank: int, nranks: int) -> float:
        """Cost of a tree-structured collective (reduce/bcast-style)."""
        if nranks <= 1:
            return 0.0
        rounds = max(1, math.ceil(math.log2(nranks)))
        return rounds * self.transfer_time(nbytes_per_rank)

    def alltoall_time(self, total_send_bytes: int, nranks: int) -> float:
        """Cost of an all-to-all personalised exchange from one rank's view."""
        if nranks <= 1:
            return 0.0
        return (nranks - 1) * self.latency + self.transfer_time(total_send_bytes)


class VirtualClock:
    """Per-rank simulated clock.

    ``now`` only moves forward.  ``compute_scale`` converts measured thread
    CPU seconds into simulated seconds; the default of 1.0 reports real CPU
    effort, while benchmarks model faster cluster cores by setting it below
    one.
    """

    def __init__(self, compute_scale: float = 1.0) -> None:
        if compute_scale <= 0:
            raise ValueError("compute_scale must be positive")
        self._now = 0.0
        self.compute_scale = compute_scale
        #: per-category accumulated time, e.g. {"io": 1.2, "comm": 0.3}
        self.breakdown: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        return self._now

    def reset(self) -> None:
        self._now = 0.0
        self.breakdown.clear()

    def advance(self, seconds: float, category: str = "other") -> float:
        """Advance the clock by *seconds* (negative values are ignored)."""
        if seconds > 0:
            self._now += seconds
            self.breakdown[category] = self.breakdown.get(category, 0.0) + seconds
        return self._now

    def advance_to(self, timestamp: float, category: str = "wait") -> float:
        """Move the clock forward to *timestamp* if it is in the future."""
        if timestamp > self._now:
            self.advance(timestamp - self._now, category=category)
        return self._now

    # ------------------------------------------------------------------ #
    @contextmanager
    def compute(self, category: str = "compute") -> Iterator[None]:
        """Measure the enclosed block's thread CPU time and charge it.

        ``time.thread_time`` counts only the calling thread, so concurrent
        simulated ranks do not pollute each other's measurements even though
        they share one core.
        """
        start = time.thread_time()
        try:
            yield
        finally:
            elapsed = (time.thread_time() - start) * self.compute_scale
            self.advance(elapsed, category=category)

    def category(self, name: str) -> float:
        """Accumulated simulated seconds charged to *name*."""
        return self.breakdown.get(name, 0.0)

    def snapshot(self) -> Dict[str, float]:
        """Copy of the per-category breakdown plus the total."""
        out = dict(self.breakdown)
        out["total"] = self._now
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"VirtualClock(now={self._now:.6f})"
