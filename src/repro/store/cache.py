"""SIEVE page cache with hit/miss/eviction statistics.

The serving path reads pages through this cache so a warm working set never
touches the (simulated) filesystem again — the page-granular analogue of the
buffer pools in the database systems §2 of the paper positions itself
against.  Statistics are first-class because the tests and the cold-vs-warm
benchmark assert on them.

Eviction is SIEVE (Zhang et al., "SIEVE is Simpler than LRU: an Efficient
Turn-Key Eviction Algorithm for Web Caches", NSDI 2024): one insertion-order
queue, a visited bit per entry and a hand.  A hit only sets the bit, so a
page that queries come back to survives a scan of pages touched once.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Any, Deque, Dict, Generic, List, Optional, TypeVar

from ..obs.metrics import MetricsRegistry

K = TypeVar("K")
V = TypeVar("V")

__all__ = ["CacheStats", "PageCache"]


def _counter(attr: str) -> property:
    """Int facade over one ``cache.*`` counter (``+=`` keeps working)."""

    def fset(self: "CacheStats", value: int) -> None:
        getattr(self, attr).value = value

    return property(attrgetter(f"{attr}.value"), fset)


class CacheStats:
    """Counters accumulated by a :class:`PageCache`.

    A facade over ``cache.*`` counters in a
    :class:`~repro.obs.metrics.MetricsRegistry`, so cache counters merge and
    aggregate like every other metric while ``stats.hits += 1`` and
    ``as_dict()`` read like plain attributes.
    """

    __slots__ = ("registry", "_hits", "_misses", "_evictions")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._hits = self.registry.counter("cache.hits")
        self._misses = self.registry.counter("cache.misses")
        self._evictions = self.registry.counter("cache.evictions")

    hits = _counter("_hits")
    misses = _counter("_misses")
    evictions = _counter("_evictions")

    # derived views ------------------------------------------------------ #
    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served from the cache (0.0 when untouched)."""
        total = self.accesses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )


class PageCache(Generic[K, V]):
    """Bounded mapping with SIEVE eviction.

    Entries are kept in insertion order.  A hit sets the entry's visited
    bit and moves nothing.  To make room, a hand walks from the oldest entry
    towards the newest, clearing visited bits as it goes, and evicts the
    first unvisited entry; the hand stays where it stopped and wraps to the
    oldest entry at the end.  ``put`` of a resident key replaces its value
    without touching the bit.

    The queue is two deques: the entries the hand has already passed this
    sweep (oldest first) and those still ahead of it, to which new entries
    are appended — so the hand's position is the front of the second, and
    the two swap when the hand passes the newest entry.

    ``capacity`` counts entries (pages), not bytes: store pages have a
    bounded payload size, so entry count is a faithful proxy and keeps the
    arithmetic obvious in tests.  ``capacity=0`` disables caching entirely
    (every access is a miss), which is how the benchmark models a cold run.
    """

    def __init__(self, capacity: int, stats: Optional[CacheStats] = None) -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0")
        self.capacity = capacity
        #: pass a pre-built :class:`CacheStats` to account this cache inside
        #: an existing metrics registry (the store does)
        self.stats = stats if stats is not None else CacheStats()
        #: key -> ``[value, visited, key]``
        self._entries: Dict[K, List[Any]] = {}
        self._passed: Deque[List[Any]] = deque()
        self._ahead: Deque[List[Any]] = deque()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------ #
    def get(self, key: K) -> Optional[V]:
        """Look up *key*, marking it visited; counts a hit or a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        entry[1] = True
        return entry[0]

    def put(self, key: K, value: V) -> None:
        """Insert (or replace) an entry, evicting one when full."""
        entry = self._entries.get(key)
        if entry is not None:
            entry[0] = value
        elif self.capacity:
            if len(self._entries) >= self.capacity:
                self._evict()
            self._entries[key] = entry = [value, False, key]
            self._ahead.append(entry)

    def _evict(self) -> None:
        visited = True
        while visited:
            entry = self._ahead.popleft()
            visited = entry[1]
            if visited:
                entry[1] = False
                self._passed.append(entry)
            if not self._ahead:  # past the newest entry: wrap to the oldest
                self._ahead, self._passed = self._passed, self._ahead
        del self._entries[entry[2]]
        self.stats.evictions += 1
