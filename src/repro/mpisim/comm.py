"""Rank-bound communicators.

Each simulated rank receives its own :class:`Communicator` view over the
shared :class:`~repro.mpisim.world.World`.  The API follows mpi4py's
lower-case object protocol (``send``/``recv``/``bcast``/``alltoallv``/...)
because that is the style the rest of the library and the paper's pseudo-code
map onto most directly.

Every communication call advances the caller's virtual clock using the
world's :class:`~repro.mpisim.clock.CommCostModel`; collectives additionally
synchronise the participants' clocks, so phase breakdowns measured on top of
this runtime behave like the per-process maxima reported in the paper.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .clock import LATENCY, VirtualClock
from .errors import CollectiveMismatchError, MPIError
from .ops import Op
from .status import ANY_SOURCE, ANY_TAG, Request, Status
from .world import World, _Message, payload_nbytes

__all__ = ["Communicator", "collective_check"]

# ---------------------------------------------------------------------- #
# lockstep collective verification (the dynamic half of repro.analysis)
# ---------------------------------------------------------------------- #
# Armed state of newly constructed communicators; collective_check() is the
# one switch (tests/store/conftest.py arms the equality batteries with it).
_check_default = False

_THIS_DIR = os.path.dirname(os.path.abspath(__file__))


@contextmanager
def collective_check(enabled: bool = True) -> Iterator[None]:
    """Arm (or, with ``enabled=False``, disarm) the lockstep verifier on
    every communicator constructed inside the block; the previous state is
    restored on exit.

    Communicators are constructed when ``run_spmd`` launches its ranks (and
    ``split``/``dup`` inherit the state), so wrapping the ``run_spmd`` call
    arms every rank alike::

        with collective_check():
            result = mpisim.run_spmd(prog, nprocs=4)
    """
    global _check_default
    previous, _check_default = _check_default, bool(enabled)
    try:
        yield
    finally:
        _check_default = previous


def _callsite() -> str:
    """The nearest stack frame outside the mpisim package — the user-code
    line that issued the collective (``sharded.py:829 in _serve``)."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if os.path.dirname(os.path.abspath(filename)) != _THIS_DIR:
            short = "/".join(filename.replace(os.sep, "/").split("/")[-2:])
            return f"{short}:{frame.f_lineno} in {frame.f_code.co_name}"
        frame = frame.f_back
    return "<unknown>"


class Communicator:
    """A communicator bound to one simulated rank.

    ``comm_id`` identifies the communicator group across ranks (all members
    share it), while ``rank`` is this member's position within the group.
    """

    def __init__(
        self,
        world: World,
        rank: int,
        members: Optional[Sequence[int]] = None,
        comm_id: int = 0,
    ) -> None:
        self.world = world
        self._members: Tuple[int, ...] = tuple(members) if members is not None else tuple(range(world.nprocs))
        if rank < 0 or rank >= len(self._members):
            raise ValueError(f"rank {rank} outside communicator of size {len(self._members)}")
        self.rank = rank
        self.comm_id = comm_id
        self._engine = world.engine(comm_id, len(self._members), list(self._members))
        # Number of split/dup calls issued through this communicator; SPMD
        # guarantees it stays identical across members, which makes derived
        # communicator ids deterministic without extra communication.
        self._derived_count = 0
        # optional observability sink (attach_metrics); None-checked per
        # operation so an unobserved communicator pays one branch
        self._metrics = None
        # optional fault-injection hook (attach_fault_hook); same
        # None-checked-per-operation contract as the metrics sink
        self._fault_hook = None
        # lockstep collective verification: armed state is sampled from
        # collective_check() at construction (and inherited by split/dup),
        # the sequence number counts this communicator's collectives so
        # armed ranks can detect a peer that skipped or repeated one
        self._check_enabled = _check_default
        self._check_seq = 0

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def attach_metrics(self, registry) -> None:
        """Mirror this rank's communication into *registry* counters:
        ``comm.messages`` / ``comm.bytes_sent`` for point-to-point sends and
        ``comm.collectives`` / ``comm.bytes_collective`` for collective
        participation (own contribution).  Counters are per-rank
        absolutes, so merging rank snapshots with
        :func:`repro.obs.metrics.merge_snapshots` stays idempotent."""
        self._metrics = registry

    def detach_metrics(self) -> None:
        self._metrics = None

    # ------------------------------------------------------------------ #
    # fault injection
    # ------------------------------------------------------------------ #
    def attach_fault_hook(self, hook) -> None:
        """Install a rank-fault hook called as ``hook(op, rank)`` at the
        entry of every communication call on this communicator (*op* is the
        operation name, *rank* this member's communicator rank).

        The hook injects a fault by raising — conventionally a
        :class:`~repro.mpisim.errors.RankFaultError` — which then travels
        the exact path a genuine rank failure would: out of the SPMD
        function, into ``world.abort``, and into every blocked peer as an
        ``MPIAbortError``.  Derived communicators (``split``/``dup``) do not
        inherit the hook.
        """
        self._fault_hook = hook

    # ------------------------------------------------------------------ #
    # lockstep collective verification
    # ------------------------------------------------------------------ #
    def _verify_lockstep(self, gathered: List[Tuple[Any, ...]]) -> None:
        """Raise :class:`~repro.mpisim.errors.CollectiveMismatchError` on
        every rank when the gathered ``(op, callsite, seq, root)`` records
        disagree on ``(op, seq, root)``.  Callsites are named but not
        compared: matched collectives issued from both branches of a
        rank-conditional (root branch vs worker branch) are legitimate."""
        records = [entry[3] for entry in gathered]
        by_key: Dict[Tuple[Any, ...], List[int]] = {}
        for rank, (op, _, seq, root) in enumerate(records):
            by_key.setdefault((op, seq, root), []).append(rank)
        if len(by_key) <= 1:
            return
        lines = []
        for ranks in sorted(by_key.values()):
            for rank in ranks:
                op, callsite, seq, root = records[rank]
                root_part = f", root={root}" if root is not None else ""
                lines.append(f"rank {rank}: {op}() #{seq}{root_part} at {callsite}")
        op, callsite, seq, _ = records[self.rank]
        raise CollectiveMismatchError(
            f"collective lockstep mismatch on communicator {self.comm_id}: "
            f"rank {self.rank} is in {op}() #{seq} at {callsite} but the "
            f"participants disagree:\n  " + "\n  ".join(lines)
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        return len(self._members)

    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    @property
    def clock(self) -> VirtualClock:
        """Virtual clock of the calling rank."""
        return self.world.clocks[self._members[self.rank]]

    @property
    def cost_model(self):
        return self.world.cost_model

    # ------------------------------------------------------------------ #
    # point-to-point
    # ------------------------------------------------------------------ #
    def _check_source(self, source: int) -> None:
        """A source outside the communicator can never send: refuse it
        instead of waiting for the deadlock timeout."""
        if source != ANY_SOURCE and not (0 <= source < self.size):
            raise MPIError(f"invalid source rank {source}")

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Buffered send (never deadlocks; matches MPI's eager protocol for
        the message sizes exercised here)."""
        if not (0 <= dest < self.size):
            raise MPIError(f"invalid destination rank {dest}")
        if self._fault_hook is not None:
            self._fault_hook("send", self.rank)
        nbytes = payload_nbytes(obj)
        if self._metrics is not None:
            self._metrics.counter("comm.messages").inc()
            self._metrics.counter("comm.bytes_sent").inc(nbytes)
        cost = self.cost_model.transfer_time(nbytes)
        send_clock = self.clock
        # The sender pays the injection latency; the payload lands at the
        # receiver once the full transfer time has elapsed.
        send_clock.advance(LATENCY, category="comm")
        arrival = send_clock.now + cost
        msg = _Message(self.comm_id, self.rank, tag, obj, arrival, nbytes)
        self.world.mailboxes[self._members[dest]].deliver(msg)

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """Blocking receive returning the matched payload."""
        self._check_source(source)
        if self._fault_hook is not None:
            self._fault_hook("recv", self.rank)
        mbox = self.world.mailboxes[self._members[self.rank]]
        msg = mbox.take(self.comm_id, source, tag)
        self.clock.advance_to(msg.arrival_time, category="comm")
        if status is not None:
            status.source = msg.source
            status.tag = msg.tag
            status.nbytes = msg.nbytes
        return msg.payload

    def sendrecv(
        self,
        sendobj: Any,
        dest: int,
        sendtag: int = 0,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """Combined send + receive (no deadlock thanks to buffered sends)."""
        self.send(sendobj, dest, sendtag)
        return self.recv(source, recvtag, status)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send; completes immediately (buffered)."""
        self.send(obj, dest, tag)
        return Request(lambda: None)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; the matching happens inside ``wait``."""
        self._check_source(source)
        return Request(lambda: self.recv(source, tag))

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Block until a matching message is available; return its status
        without consuming it (``MPI_Probe`` + ``MPI_Get_count`` idiom)."""
        self._check_source(source)
        mbox = self.world.mailboxes[self._members[self.rank]]
        msg = mbox.peek(self.comm_id, source, tag)
        status = Status()
        status.source = msg.source
        status.tag = msg.tag
        status.nbytes = msg.nbytes
        return status

    # ------------------------------------------------------------------ #
    # collective plumbing
    # ------------------------------------------------------------------ #
    def _exchange(
        self,
        value: Any,
        nbytes: int,
        cost_fn: Callable[[int, int], float],
        op: str = "collective",
        root: Optional[int] = None,
    ) -> List[Any]:
        """Gather ``(entry_time, value)`` from every rank, synchronise clocks
        and charge ``cost_fn(max_bytes, size)`` to everyone.

        With the lockstep check armed the entry grows a fourth element —
        the ``(op, callsite, seq, root)`` verification record — which is
        compared across ranks before any payload is used."""
        if self._fault_hook is not None:
            self._fault_hook("collective", self.rank)
        if self._metrics is not None:
            self._metrics.counter("comm.collectives").inc()
            self._metrics.counter("comm.bytes_collective").inc(nbytes)
        if self._check_enabled:
            record = (op, _callsite(), self._check_seq, root)
            self._check_seq += 1
            entry: Tuple[Any, ...] = (self.clock.now, nbytes, value, record)
        else:
            entry = (self.clock.now, nbytes, value)
        gathered = self._engine.exchange(
            self.rank, entry, watch_exits=self._check_enabled
        )
        if self._check_enabled:
            self._verify_lockstep(gathered)
        max_entry = max(e[0] for e in gathered)
        max_bytes = max(e[1] for e in gathered)
        cost = cost_fn(max_bytes, self.size)
        self.clock.advance_to(max_entry, category="wait")
        self.clock.advance(cost, category="comm")
        return [e[2] for e in gathered]

    # ------------------------------------------------------------------ #
    # collectives
    # ------------------------------------------------------------------ #
    def barrier(self) -> None:
        self._exchange(None, 0, lambda b, n: self.cost_model.collective_time(8, n), op="barrier")

    def bcast(self, obj: Any, root: int = 0) -> Any:
        values = self._exchange(
            obj if self.rank == root else None,
            payload_nbytes(obj) if self.rank == root else 0,
            lambda b, n: self.cost_model.collective_time(b, n),
            op="bcast",
            root=root,
        )
        return values[root]

    def scatter(self, sendobj: Optional[Sequence[Any]], root: int = 0) -> Any:
        if self.rank == root:
            if sendobj is None or len(sendobj) != self.size:
                raise MPIError("scatter requires a sequence of length equal to the communicator size at the root")
        values = self._exchange(
            list(sendobj) if self.rank == root else None,
            payload_nbytes(sendobj) if self.rank == root else 0,
            lambda b, n: self.cost_model.collective_time(b // max(1, n), n),
            op="scatter",
            root=root,
        )
        return values[root][self.rank]

    def gather(self, sendobj: Any, root: int = 0) -> Optional[List[Any]]:
        values = self._exchange(
            sendobj,
            payload_nbytes(sendobj),
            lambda b, n: self.cost_model.collective_time(b, n),
            op="gather",
            root=root,
        )
        return values if self.rank == root else None

    def allgather(self, sendobj: Any) -> List[Any]:
        return self._exchange(
            sendobj,
            payload_nbytes(sendobj),
            lambda b, n: self.cost_model.collective_time(b, n),
            op="allgather",
        )

    def alltoall(self, sendobjs: Sequence[Any]) -> List[Any]:
        """Personalised exchange: element *j* of the send list goes to rank
        *j*; the result holds one element from every rank."""
        if len(sendobjs) != self.size:
            raise MPIError("alltoall requires one send object per rank")
        total = payload_nbytes(sendobjs)
        matrix = self._exchange(
            list(sendobjs),
            total,
            lambda b, n: self.cost_model.alltoall_time(b, n),
            op="alltoall",
        )
        return [matrix[src][self.rank] for src in range(self.size)]

    def alltoallv(self, sendobjs: Sequence[Any]) -> List[Any]:
        """Variable-size personalised exchange.

        In real MPI the caller supplies count/displacement arrays; with the
        object protocol the per-destination payloads already carry their own
        sizes, so the signature collapses to that of :meth:`alltoall`.  The
        cost model still accounts for the irregular sizes (the largest
        per-rank total dominates, as it does on a real fat-tree).
        """
        return self.alltoall(sendobjs)

    def reduce(self, sendobj: Any, op: Op, root: int = 0) -> Optional[Any]:
        values = self._exchange(
            sendobj,
            payload_nbytes(sendobj),
            lambda b, n: self.cost_model.collective_time(b, n),
            op="reduce",
            root=root,
        )
        if self.rank != root:
            return None
        with self.clock.compute(category="reduce_op"):
            return op.reduce_sequence(values)

    def allreduce(self, sendobj: Any, op: Op) -> Any:
        values = self._exchange(
            sendobj,
            payload_nbytes(sendobj),
            lambda b, n: self.cost_model.collective_time(b, n),
            op="allreduce",
        )
        with self.clock.compute(category="reduce_op"):
            return op.reduce_sequence(values)

    def scan(self, sendobj: Any, op: Op) -> Any:
        """Inclusive prefix reduction over ranks 0..rank."""
        values = self._exchange(
            sendobj,
            payload_nbytes(sendobj),
            lambda b, n: self.cost_model.collective_time(b, n),
            op="scan",
        )
        with self.clock.compute(category="reduce_op"):
            return op.reduce_sequence(values[: self.rank + 1])

    def exscan(self, sendobj: Any, op: Op) -> Optional[Any]:
        """Exclusive prefix reduction (rank 0 gets ``None``)."""
        values = self._exchange(
            sendobj,
            payload_nbytes(sendobj),
            lambda b, n: self.cost_model.collective_time(b, n),
            op="exscan",
        )
        if self.rank == 0:
            return None
        with self.clock.compute(category="reduce_op"):
            return op.reduce_sequence(values[: self.rank])

    # ------------------------------------------------------------------ #
    # communicator management
    # ------------------------------------------------------------------ #
    def split(self, color: int, key: Optional[int] = None) -> Optional["Communicator"]:
        """Split into sub-communicators by *color*; ordering within each new
        communicator follows *key* (defaults to the current rank).  A negative
        color returns ``None`` (``MPI_UNDEFINED``)."""
        key = self.rank if key is None else key
        entries = self._exchange((color, key, self.rank), 24, lambda b, n: self.cost_model.collective_time(32, n), op="split")
        # Allocate a deterministic id for every color of this split so all
        # members of one color agree without extra communication.
        self._derived_count += 1
        base_id = (self.comm_id * 7919 + self._derived_count) * 1009
        if color < 0:
            return None
        group = sorted(
            [(k, r) for c, k, r in entries if c == color],
            key=lambda item: (item[0], item[1]),
        )
        member_world_ranks = [self._members[r] for _, r in group]
        new_rank = [r for _, r in group].index(self.rank)
        colors = sorted({c for c, _, _ in entries if c >= 0})
        new_comm_id = base_id + colors.index(color)
        derived = Communicator(self.world, new_rank, member_world_ranks, new_comm_id)
        derived._check_enabled = self._check_enabled
        return derived

    def dup(self) -> "Communicator":
        """Duplicate the communicator (fresh collective context)."""
        self.barrier()
        self._derived_count += 1
        new_id = (self.comm_id * 7919 + self._derived_count) * 1013 + 1
        derived = Communicator(self.world, self.rank, self._members, new_id)
        derived._check_enabled = self._check_enabled
        return derived

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Communicator id={self.comm_id} rank={self.rank}/{self.size}>"
