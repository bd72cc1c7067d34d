"""Shared state backing a simulated MPI world.

A :class:`World` owns the per-rank mailboxes, the collective-exchange engine,
the per-rank virtual clocks and the abort machinery.  Rank-bound
:class:`~repro.mpisim.comm.Communicator` objects are thin views over it.
"""

from __future__ import annotations

import pickle
import threading
from typing import Any, Dict, List, Optional

from .clock import CommCostModel, VirtualClock
from .errors import CollectiveMismatchError, MPIAbortError

__all__ = ["World", "payload_nbytes"]


def _thread_rank() -> Optional[int]:
    """Rank of the calling simulated thread (None off the SPMD threads)."""
    name = threading.current_thread().name
    if not name.startswith("mpisim-rank-"):
        return None
    try:
        return int(name[len("mpisim-rank-"):])
    except ValueError:
        return None


def payload_nbytes(obj: Any) -> int:
    """Approximate wire size of a Python payload in bytes.

    Buffer-like objects report their true size; other objects fall back to the
    pickled length, mirroring mpi4py's object protocol.
    """
    if obj is None:
        return 0
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, (int, float)):
        return int(nbytes)
    if isinstance(obj, (int, float, bool)):
        return 8
    if isinstance(obj, (list, tuple)) and len(obj) <= 64:
        return sum(payload_nbytes(x) for x in obj)
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64


class _Message:
    """One point-to-point message; *comm_id* is the sending communicator, so
    a receive on a derived communicator never matches its parent's traffic."""

    __slots__ = ("comm_id", "source", "tag", "payload", "arrival_time", "nbytes")

    def __init__(
        self, comm_id: int, source: int, tag: int, payload: Any, arrival_time: float, nbytes: int
    ) -> None:
        self.comm_id = comm_id
        self.source = source
        self.tag = tag
        self.payload = payload
        self.arrival_time = arrival_time
        self.nbytes = nbytes


class _Mailbox:
    """Per-rank incoming message queue with communicator/source/tag matching."""

    def __init__(self, world: "World") -> None:
        self._world = world
        self._messages: List[_Message] = []
        self._cond = threading.Condition()

    def deliver(self, msg: _Message) -> None:
        with self._cond:
            self._messages.append(msg)
            self._cond.notify_all()

    def wake(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def _match(self, comm_id: int, source: int, tag: int) -> Optional[int]:
        for i, msg in enumerate(self._messages):
            if (
                msg.comm_id == comm_id
                and (source == -1 or msg.source == source)
                and (tag == -1 or msg.tag == tag)
            ):
                return i
        return None

    def take(self, comm_id: int, source: int, tag: int) -> _Message:
        """Block until a matching message arrives, then remove and return it."""
        with self._cond:
            self._world.note_waiting("recv")
            try:
                while True:
                    self._world.check_abort()
                    idx = self._match(comm_id, source, tag)
                    if idx is not None:
                        return self._messages.pop(idx)
                    self._cond.wait(timeout=0.2)
            finally:
                self._world.note_running()

    def peek(self, comm_id: int, source: int, tag: int) -> _Message:
        """Block until a matching message arrives and return it without removing."""
        with self._cond:
            self._world.note_waiting("recv")
            try:
                while True:
                    self._world.check_abort()
                    idx = self._match(comm_id, source, tag)
                    if idx is not None:
                        return self._messages[idx]
                    self._cond.wait(timeout=0.2)
            finally:
                self._world.note_running()


class _CollectiveEngine:
    """Generation-counted rendezvous used to implement every collective.

    All ranks of a communicator call :meth:`exchange` in the same program
    order (the SPMD contract); each call gathers one value from every rank and
    returns the full list to all of them.
    """

    def __init__(
        self,
        world: "World",
        nranks: int,
        members: Optional[List[int]] = None,
    ) -> None:
        self._world = world
        self._nranks = nranks
        #: world ranks backing each slot (for exit-imbalance diagnosis)
        self._members = list(members) if members is not None else list(range(nranks))
        self._cond = threading.Condition()
        self._generation = 0
        self._arrived = 0
        self._arrived_ranks: set = set()
        self._slots: List[Any] = [None] * nranks
        self._results: Dict[int, List[Any]] = {}
        self._readers_left: Dict[int, int] = {}

    def wake(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def _check_exited_peers(self, index: int, value: Any, gen: int) -> None:
        """With the lockstep check armed, a peer that already returned from
        its SPMD function can never join this rendezvous: fail now instead
        of sitting in the deadlock timeout (an arity mismatch — one rank
        issued more collectives than its peers — looks exactly like this)."""
        if gen != self._generation:
            return
        exited = [
            self._members[i]
            for i in range(self._nranks)
            if i not in self._arrived_ranks
            and self._world.has_finished(self._members[i])
        ]
        if not exited:
            return
        record = value[3] if isinstance(value, tuple) and len(value) > 3 else None
        where = (
            f"{record[0]}() #{record[2]} at {record[1]}"
            if record is not None
            else f"collective #{gen}"
        )
        ranks = ", ".join(str(r) for r in exited)
        raise CollectiveMismatchError(
            f"collective lockstep mismatch: rank {self._members[index]} is "
            f"waiting in {where} but rank(s) {ranks} already returned from "
            f"the SPMD function — one side issued more collectives than the "
            f"other"
        )

    def exchange(self, index: int, value: Any, watch_exits: bool = False) -> List[Any]:
        with self._cond:
            gen = self._generation
            self._slots[index] = value
            self._arrived += 1
            self._arrived_ranks.add(index)
            if self._arrived == self._nranks:
                self._results[gen] = list(self._slots)
                self._readers_left[gen] = self._nranks
                self._slots = [None] * self._nranks
                self._arrived = 0
                self._arrived_ranks = set()
                self._generation += 1
                self._cond.notify_all()
            else:
                self._world.note_waiting("collective")
                try:
                    while gen not in self._results:
                        self._world.check_abort()
                        if watch_exits:
                            self._check_exited_peers(index, value, gen)
                        self._cond.wait(timeout=0.2)
                finally:
                    self._world.note_running()
            result = self._results[gen]
            self._readers_left[gen] -= 1
            if self._readers_left[gen] == 0:
                del self._results[gen]
                del self._readers_left[gen]
            return result


class World:
    """All shared state for one simulated MPI execution."""

    def __init__(
        self,
        nprocs: int,
        cost_model: Optional[CommCostModel] = None,
        compute_scale: float = 1.0,
    ) -> None:
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.nprocs = nprocs
        self.cost_model = cost_model or CommCostModel()
        self.clocks = [VirtualClock(compute_scale=compute_scale) for _ in range(nprocs)]
        self.mailboxes = [_Mailbox(self) for _ in range(nprocs)]
        self._engines: Dict[int, _CollectiveEngine] = {}
        self._engines_lock = threading.Lock()
        self._abort_exc: Optional[BaseException] = None
        self._abort_rank: Optional[int] = None
        #: rank -> communication op ("recv"/"collective") it is blocked in;
        #: purely diagnostic — the launcher reads it on timeout to tell a
        #: deadlock from a long-running computation
        self._waiting: Dict[int, str] = {}
        self._waiting_lock = threading.Lock()
        #: world ranks whose SPMD function has returned (the launcher marks
        #: them); armed collective waiters use this to detect peers that can
        #: never join their rendezvous
        self._finished: set = set()
        self._finished_lock = threading.Lock()
        #: arbitrary per-run shared objects (e.g. the simulated filesystem)
        self.shared: Dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    def engine(
        self,
        comm_id: int,
        nranks: int,
        members: Optional[List[int]] = None,
    ) -> _CollectiveEngine:
        """Collective engine for the communicator *comm_id* (created lazily).

        *members* maps the engine's slots to world ranks; it only matters
        for the armed lockstep check's exit-imbalance diagnosis."""
        with self._engines_lock:
            eng = self._engines.get(comm_id)
            if eng is None:
                eng = _CollectiveEngine(self, nranks, members)
                self._engines[comm_id] = eng
            return eng

    # ------------------------------------------------------------------ #
    # finished-rank tracking (armed lockstep check)
    # ------------------------------------------------------------------ #
    def note_finished(self, rank: int) -> None:
        """Mark *rank*'s SPMD function as returned and wake collective
        waiters so an armed rank blocked on it fails fast."""
        with self._finished_lock:
            self._finished.add(rank)
        with self._engines_lock:
            engines = list(self._engines.values())
        for eng in engines:
            eng.wake()

    def has_finished(self, rank: int) -> bool:
        with self._finished_lock:
            return rank in self._finished

    # ------------------------------------------------------------------ #
    # blocked-rank tracking (deadlock diagnosis)
    # ------------------------------------------------------------------ #
    def note_waiting(self, op: str) -> None:
        """Mark the calling rank as blocked in communication *op*."""
        rank = _thread_rank()
        if rank is None:
            return
        with self._waiting_lock:
            self._waiting[rank] = op

    def note_running(self) -> None:
        """Clear the calling rank's blocked marker."""
        rank = _thread_rank()
        if rank is None:
            return
        with self._waiting_lock:
            self._waiting.pop(rank, None)

    def waiting_ops(self) -> Dict[int, str]:
        """Snapshot of ``rank -> blocked op`` for currently waiting ranks."""
        with self._waiting_lock:
            return dict(self._waiting)

    # ------------------------------------------------------------------ #
    # abort machinery
    # ------------------------------------------------------------------ #
    def abort(self, exc: BaseException, rank: int) -> None:
        """Record a failure and wake every blocked rank."""
        if self._abort_exc is None:
            self._abort_exc = exc
            self._abort_rank = rank
        for mbox in self.mailboxes:
            mbox.wake()
        with self._engines_lock:
            engines = list(self._engines.values())
        for eng in engines:
            eng.wake()

    @property
    def abort_exception(self) -> Optional[BaseException]:
        return self._abort_exc

    def check_abort(self) -> None:
        if self._abort_exc is not None:
            raise MPIAbortError(
                f"rank {self._abort_rank} failed: {self._abort_exc!r}"
            ) from self._abort_exc
