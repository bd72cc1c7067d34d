"""File striping across object storage targets (OSTs).

Lustre stripes a file round-robin across ``stripe_count`` OSTs in units of
``stripe_size`` bytes.  The reproduction keeps the actual bytes in an ordinary
local file; the :class:`StripeLayout` only answers the question the cost model
cares about: *which OSTs does a byte range touch, and with how many requests
of how many bytes each?*
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

__all__ = ["StripeLayout", "OSTLoad"]


@dataclass
class OSTLoad:
    """Bytes and request count a single OST serves for one operation."""

    nbytes: int = 0
    requests: int = 0

    def add(self, nbytes: int) -> None:
        self.nbytes += nbytes
        self.requests += 1


@dataclass(frozen=True)
class StripeLayout:
    """Round-robin striping description for one file; stripe 0 is on OST 0."""

    stripe_size: int
    stripe_count: int

    def __post_init__(self) -> None:
        if self.stripe_size <= 0:
            raise ValueError("stripe_size must be positive")
        if self.stripe_count <= 0:
            raise ValueError("stripe_count must be positive")

    # ------------------------------------------------------------------ #
    def stripe_chunks(self, offset: int, nbytes: int) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(ost, chunk_offset, chunk_bytes)`` for a byte range,
        splitting it at stripe boundaries."""
        if nbytes <= 0:
            return
        end = offset + nbytes
        pos = offset
        while pos < end:
            stripe_index = pos // self.stripe_size
            stripe_end = (stripe_index + 1) * self.stripe_size
            chunk = min(end, stripe_end) - pos
            yield (stripe_index % self.stripe_count, pos, chunk)
            pos += chunk

    def ost_loads(self, ranges: List[Tuple[int, int]]) -> Dict[int, OSTLoad]:
        """Aggregate per-OST load for a list of ``(offset, nbytes)`` ranges.

        Contiguous chunks that land on the same OST within one range are
        counted as a single request per stripe chunk, which is how the Lustre
        client issues RPCs.
        """
        loads: Dict[int, OSTLoad] = {}
        for offset, nbytes in ranges:
            for ost, _, chunk in self.stripe_chunks(offset, nbytes):
                loads.setdefault(ost, OSTLoad()).add(chunk)
        return loads
