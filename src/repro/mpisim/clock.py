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
from typing import Dict, Iterator

__all__ = ["VirtualClock", "CommCostModel"]

# The interconnect approximates the paper's COMET cluster: FDR InfiniBand
# with 56 Gb/s links (~7 GB/s) and microsecond-scale message latency.

#: one-way message latency in seconds
LATENCY = 2.0e-6
#: point-to-point bandwidth in bytes/second
BANDWIDTH = 7.0e9
#: additional per-byte cost of packing/unpacking (serialisation overhead)
PACK_OVERHEAD_PER_BYTE = 2.0e-11


class CommCostModel:
    """Linear latency/bandwidth model for interconnect transfers."""

    def transfer_time(self, nbytes: int) -> float:
        """Time for a single point-to-point message of *nbytes*."""
        nbytes = max(0, int(nbytes))
        return LATENCY + nbytes / BANDWIDTH + nbytes * PACK_OVERHEAD_PER_BYTE

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
        return (nranks - 1) * LATENCY + self.transfer_time(total_send_bytes)


class VirtualClock:
    """Per-rank simulated clock.

    ``now`` only moves forward.  Measured thread CPU seconds are charged
    one for one: a simulated second of compute is a real second of CPU.
    """

    def __init__(self) -> None:
        self._now = 0.0
        #: per-category accumulated time, e.g. {"io": 1.2, "comm": 0.3}
        self.breakdown: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        return self._now

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
            self.advance(time.thread_time() - start, category=category)

    def category(self, name: str) -> float:
        """Accumulated simulated seconds charged to *name*."""
        return self.breakdown.get(name, 0.0)

    def __repr__(self) -> str:  # pragma: no cover
        return f"VirtualClock(now={self._now:.6f})"
