"""SIEVE written from the pseudocode of Zhang et al., "SIEVE is Simpler than
LRU: an Efficient Turn-Key Eviction Algorithm for Web Caches" (NSDI 2024),
Algorithm 1: a doubly linked queue with the newest node at the head, one
visited bit per node and a hand that walks from the tail towards the head.
``tests/store/test_cache.py`` fuzzes :class:`repro.store.PageCache` (two
deques, no links) against it.  Not used by any serving path.
"""

from typing import Any, Optional

from repro.store import CacheStats


class Node:
    __slots__ = ("key", "value", "visited", "prev", "next")

    def __init__(self, key: Any, value: Any) -> None:
        self.key = key
        self.value = value
        self.visited = False
        self.prev: Optional["Node"] = None  # towards the head (newer)
        self.next: Optional["Node"] = None  # towards the tail (older)


class SieveReference:
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.stats = CacheStats()
        self.nodes = {}
        self.head: Optional[Node] = None
        self.tail: Optional[Node] = None
        self.hand: Optional[Node] = None

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, key: Any) -> bool:
        return key in self.nodes

    def get(self, key: Any) -> Any:
        node = self.nodes.get(key)
        if node is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        node.visited = True
        return node.value

    def put(self, key: Any, value: Any) -> None:
        if key in self.nodes:
            self.nodes[key].value = value
            return
        if self.capacity == 0:
            return
        if len(self.nodes) == self.capacity:
            self._evict()
        node = Node(key, value)
        node.next = self.head
        if self.head is not None:
            self.head.prev = node
        self.head = node
        if self.tail is None:
            self.tail = node
        self.nodes[key] = node

    def _evict(self) -> None:
        o = self.hand if self.hand is not None else self.tail
        while o.visited:
            o.visited = False
            o = o.prev if o.prev is not None else self.tail
        self.hand = o.prev
        self._unlink(o)
        del self.nodes[o.key]
        self.stats.evictions += 1

    def _unlink(self, o: Node) -> None:
        if o.prev is not None:
            o.prev.next = o.next
        else:
            self.head = o.next
        if o.next is not None:
            o.next.prev = o.prev
        else:
            self.tail = o.prev
