"""LRU page cache with hit/miss/eviction statistics.

The serving path reads pages through this cache so a warm working set never
touches the (simulated) filesystem again — the page-granular analogue of the
buffer pools in the database systems §2 of the paper positions itself
against.  Statistics are first-class because the tests and the cold-vs-warm
benchmark assert on them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generic, Iterator, Optional, TypeVar

from ..obs.metrics import MetricsRegistry

K = TypeVar("K")
V = TypeVar("V")

__all__ = ["CacheStats", "LRUPageCache"]


class CacheStats:
    """Counters accumulated by an :class:`LRUPageCache`.

    Since PR 6 this is a facade over a
    :class:`~repro.obs.metrics.MetricsRegistry` (``cache.*`` counters), so
    cache counters merge and aggregate like every other metric; the
    attribute surface (``stats.hits += 1``, ``as_dict()``) is unchanged
    from the original dataclass.
    """

    __slots__ = ("registry", "_hits", "_misses", "_evictions")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._hits = self.registry.counter("cache.hits")
        self._misses = self.registry.counter("cache.misses")
        self._evictions = self.registry.counter("cache.evictions")

    # counter facades ---------------------------------------------------- #
    @property
    def hits(self) -> int:
        return self._hits.value

    @hits.setter
    def hits(self, value: int) -> None:
        self._hits.value = value

    @property
    def misses(self) -> int:
        return self._misses.value

    @misses.setter
    def misses(self, value: int) -> None:
        self._misses.value = value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    @evictions.setter
    def evictions(self, value: int) -> None:
        self._evictions.value = value

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


class LRUPageCache(Generic[K, V]):
    """Bounded mapping with least-recently-used eviction.

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
        self._entries: "OrderedDict[K, V]" = OrderedDict()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def keys(self) -> Iterator[K]:
        return iter(self._entries.keys())

    # ------------------------------------------------------------------ #
    def get(self, key: K) -> Optional[V]:
        """Look up *key*, refreshing its recency; counts a hit or a miss."""
        if key in self._entries:
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]
        self.stats.misses += 1
        return None

    def put(self, key: K, value: V) -> None:
        """Insert (or refresh) an entry, evicting the LRU entry when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        if self.capacity == 0:
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = value

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self._entries.clear()
