"""Deterministic fault injection for the simulated serving stack.

The fault-tolerance layer (page checksums, retry/backoff, replica failover,
degraded-mode results) is only as trustworthy as the failures it was tested
against.  This module is that test double: a :class:`FaultyFilesystem`
wrapper over any :class:`~repro.pfs.filesystem.SimulatedFilesystem` that
injects *seeded, reproducible* faults into the read path —

* **transient read errors** — ``pread`` raises :class:`TransientIOError`;
* **torn / short reads** — ``pread`` returns fewer bytes than asked for;
* **bit-flips** — ``pread`` returns the right length with one bit flipped
  (the silent-corruption case only checksums can catch);
* **latency spikes** — ``read_time`` reports extra virtual seconds.

Faults are configured as an ordered list of :class:`FaultRule` objects,
matched per path (``fnmatch`` pattern) and per simulated MPI rank.  The
calling rank is derived from the ``mpisim-rank-N`` thread name the SPMD
runtime assigns, so one shared wrapper serves a whole simulated cluster
while each rank draws from its own seeded RNG stream — rank-deterministic
regardless of thread interleaving.

A comm-level companion, :class:`RankFaultInjector`, plugs into
:meth:`~repro.mpisim.comm.Communicator.attach_fault_hook` and kills a
configured rank after a configured number of communication calls.
"""

from __future__ import annotations

import fnmatch
import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .mpisim.errors import RankFaultError
from .mpisim.world import _thread_rank
from .pfs.filesystem import FileHandle, SimulatedFilesystem

__all__ = [
    "TransientIOError",
    "FaultRule",
    "FaultStats",
    "FaultyFileHandle",
    "FaultyFilesystem",
    "RankFaultInjector",
]


class TransientIOError(IOError):
    """An injected transient read failure (the kind a retry should absorb)."""


@dataclass
class FaultRule:
    """One injection rule: which reads it applies to and what goes wrong.

    Rates are independent per-``pread`` probabilities drawn from the calling
    rank's seeded stream; the first matching rule wins, so put specific
    patterns before catch-alls.  ``max_faults`` caps the total number of
    faults this rule injects (across all ranks), which is how "transient"
    faults are made finite and how a single poisoned read is staged.
    """

    #: fnmatch pattern against the simulated path (e.g. ``"stores/a/*.bin"``)
    path_pattern: str = "*"
    #: ranks the rule applies to (``None`` = every rank)
    ranks: Optional[Sequence[int]] = None
    #: probability a pread raises :class:`TransientIOError`
    read_error_rate: float = 0.0
    #: probability a pread returns a truncated buffer
    short_read_rate: float = 0.0
    #: probability a pread has one random bit flipped in its buffer
    bitflip_rate: float = 0.0
    #: probability ``read_time`` reports an added latency spike
    latency_spike_rate: float = 0.0
    #: virtual seconds one latency spike adds
    latency_spike_seconds: float = 0.05
    #: total faults this rule may inject (``None`` = unbounded)
    max_faults: Optional[int] = None
    #: faults injected so far (mutated by the filesystem wrapper)
    injected: int = 0

    def applies_to(self, path: str, rank: int) -> bool:
        if self.ranks is not None and rank not in self.ranks:
            return False
        return fnmatch.fnmatch(path, self.path_pattern)

    def exhausted(self) -> bool:
        return self.max_faults is not None and self.injected >= self.max_faults


@dataclass
class FaultStats:
    """Counts of every fault actually injected (for test assertions)."""

    preads: int = 0
    read_errors: int = 0
    short_reads: int = 0
    bitflips: int = 0
    latency_spikes: int = 0
    #: injected virtual seconds of latency
    spike_seconds: float = 0.0
    #: (path, offset) of each bit-flipped read, for targeted assertions
    bitflip_sites: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def total_faults(self) -> int:
        return self.read_errors + self.short_reads + self.bitflips


class FaultyFileHandle:
    """A :class:`~repro.pfs.filesystem.FileHandle` proxy whose ``pread``
    passes through the owning :class:`FaultyFilesystem`'s injection filter.

    Writes are never tampered with: the faults modelled here are read-side
    (media errors, torn network reads), and tests rely on the backing bytes
    staying authoritative so a retry can genuinely succeed.
    """

    def __init__(self, inner: FileHandle, owner: "FaultyFilesystem", path: str) -> None:
        self._inner = inner
        self._owner = owner
        self.path = path
        self.mode = inner.mode

    @property
    def layout(self):
        return self._inner.layout

    @property
    def size(self) -> int:
        return self._inner.size

    def pread(self, offset: int, nbytes: int) -> bytes:
        data = self._inner.pread(offset, nbytes)
        return self._owner._filter_pread(self.path, offset, data)

    def pwrite(self, offset: int, data: bytes) -> int:
        return self._inner.pwrite(offset, data)

    def close(self) -> None:
        self._inner.close()

    def __enter__(self) -> "FaultyFileHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class FaultyFilesystem:
    """Wrap a simulated filesystem so its read path misbehaves on demand.

    Pure delegation for everything except ``open`` (which returns a
    :class:`FaultyFileHandle`) and ``read_time`` (which may add latency
    spikes), so the wrapper is drop-in anywhere a
    :class:`~repro.pfs.filesystem.SimulatedFilesystem` is accepted.  Set
    ``armed = False`` (or use :meth:`disarm`) to pass reads through
    untouched — e.g. while bulk-loading the fixture data the faults will
    later corrupt in flight.
    """

    def __init__(
        self,
        inner: SimulatedFilesystem,
        rules: Optional[Sequence[FaultRule]] = None,
        seed: int = 0,
    ) -> None:
        self.inner = inner
        self.rules: List[FaultRule] = list(rules or [])
        self.seed = seed
        self.armed = True
        self.stats = FaultStats()
        self._rngs: Dict[int, random.Random] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #
    def add_rule(self, rule: FaultRule) -> FaultRule:
        self.rules.append(rule)
        return rule

    def arm(self) -> None:
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    def reset(self, seed: Optional[int] = None) -> None:
        """Forget RNG state and stats so a rerun replays identically."""
        if seed is not None:
            self.seed = seed
        self._rngs.clear()
        self.stats = FaultStats()
        for rule in self.rules:
            rule.injected = 0

    def _rng(self, rank: int) -> random.Random:
        rng = self._rngs.get(rank)
        if rng is None:
            rng = self._rngs[rank] = random.Random(f"faults:{self.seed}:{rank}")
        return rng

    # ------------------------------------------------------------------ #
    # injection core
    # ------------------------------------------------------------------ #
    def _match(self, path: str, rank: int) -> Optional[FaultRule]:
        for rule in self.rules:
            if not rule.exhausted() and rule.applies_to(path, rank):
                return rule
        return None

    def _filter_pread(self, path: str, offset: int, data: bytes) -> bytes:
        if not self.armed:
            return data
        rank = _thread_rank() or 0
        with self._lock:
            self.stats.preads += 1
            rule = self._match(path, rank)
            if rule is None:
                return data
            rng = self._rng(rank)
            # one draw per fault type keeps each rank's stream aligned with
            # its own pread sequence, independent of other ranks
            draws = (rng.random(), rng.random(), rng.random())
            if draws[0] < rule.read_error_rate:
                rule.injected += 1
                self.stats.read_errors += 1
                raise TransientIOError(
                    f"injected transient read error: {path!r} @ {offset}"
                )
            if data and draws[1] < rule.short_read_rate:
                rule.injected += 1
                self.stats.short_reads += 1
                return data[: rng.randrange(len(data))]
            if data and draws[2] < rule.bitflip_rate:
                rule.injected += 1
                self.stats.bitflips += 1
                self.stats.bitflip_sites.append((path, offset))
                pos = rng.randrange(len(data))
                flipped = bytearray(data)
                flipped[pos] ^= 1 << rng.randrange(8)
                return bytes(flipped)
        return data

    # ------------------------------------------------------------------ #
    # overridden surface
    # ------------------------------------------------------------------ #
    def open(self, path: str, mode: str = "r"):
        return FaultyFileHandle(self.inner.open(path, mode), self, path)

    def read_time(self, path, requests, readers=None) -> float:
        base = self.inner.read_time(path, requests, readers)
        if not self.armed:
            return base
        rank = _thread_rank() or 0
        with self._lock:
            rule = self._match(path, rank)
            if rule is None or rule.latency_spike_rate <= 0.0:
                return base
            if self._rng(rank).random() < rule.latency_spike_rate:
                self.stats.latency_spikes += 1
                self.stats.spike_seconds += rule.latency_spike_seconds
                return base + rule.latency_spike_seconds
        return base

    # ------------------------------------------------------------------ #
    # pure delegation
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def root(self):
        return self.inner.root

    @property
    def cost_model(self):
        return self.inner.cost_model

    @property
    def default_layout(self):
        return self.inner.default_layout

    def backing_path(self, path: str):
        return self.inner.backing_path(path)

    def exists(self, path: str) -> bool:
        return self.inner.exists(path)

    def file_size(self, path: str) -> int:
        return self.inner.file_size(path)

    def set_layout(self, path: str, layout) -> None:
        self.inner.set_layout(path, layout)

    def layout_of(self, path: str):
        return self.inner.layout_of(path)

    def create_file(self, path: str, data=None, layout=None) -> None:
        self.inner.create_file(path, data, layout)

    def remove(self, path: str) -> None:
        self.inner.remove(path)

    def create_file_from_local(self, path: str, local, layout=None) -> None:
        self.inner.create_file_from_local(path, local, layout)

    def open_time(self) -> float:
        return self.inner.open_time()

    def write_time(self, path, requests, writers=None) -> float:
        return self.inner.write_time(path, requests, writers)

    def describe(self) -> str:
        return f"faulty({self.inner.describe()}, rules={len(self.rules)})"


class RankFaultInjector:
    """Comm-level companion: kill one rank after *after_calls* operations.

    Attach per rank via ``comm.attach_fault_hook(injector)``; the injector
    counts that rank's communication calls and raises
    :class:`~repro.mpisim.errors.RankFaultError` once the threshold passes,
    which the SPMD runtime then propagates to every peer as an
    ``MPIAbortError`` — the simulated equivalent of a node dropping out
    mid-collective.
    """

    def __init__(self, fail_rank: int, after_calls: int = 0, op: Optional[str] = None) -> None:
        self.fail_rank = fail_rank
        self.after_calls = after_calls
        self.op = op
        self.calls: Dict[int, int] = {}

    def __call__(self, op: str, rank: int) -> None:
        count = self.calls.get(rank, 0) + 1
        self.calls[rank] = count
        if rank != self.fail_rank:
            return
        if self.op is not None and op != self.op:
            return
        if count > self.after_calls:
            raise RankFaultError(
                f"injected rank fault: rank {rank} failed in {op} "
                f"(call {count})"
            )
