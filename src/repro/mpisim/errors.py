"""Exception types for the simulated MPI runtime."""

from __future__ import annotations

__all__ = [
    "MPIError",
    "MPIAbortError",
    "CollectiveMismatchError",
    "CountLimitError",
    "RankFaultError",
]


class MPIError(RuntimeError):
    """Base class for errors raised by the simulated MPI runtime."""


class MPIAbortError(MPIError):
    """Raised in every rank when one rank fails (mirrors ``MPI_Abort``).

    The original exception is attached as ``__cause__`` on the failing rank;
    other ranks blocked in communication calls are woken up with this error so
    an SPMD program can never deadlock on a peer that has already died.
    """


class RankFaultError(MPIError):
    """Raised by an attached communicator fault hook to simulate a rank-level
    communication fault (a flaky NIC, a dropped peer).

    Fault-injection harnesses attach a hook via
    :meth:`~repro.mpisim.comm.Communicator.attach_fault_hook`; the hook
    raises this error from inside a communication call on the targeted rank,
    which then propagates through the normal abort machinery exactly like a
    genuine rank failure would.
    """


class CollectiveMismatchError(MPIError):
    """Raised by the lockstep verifier when ranks disagree on a collective.

    With :func:`~repro.mpisim.comm.collective_check` armed, every
    collective piggybacks an ``(op, callsite, seq, root)``
    record on its rendezvous.  If the gathered records disagree — one rank
    in ``barrier()`` while another is in ``bcast()``, or two ranks passing
    different ``root`` values — every participating rank raises this error
    naming the divergent ranks and both callsites, instead of the program
    dying much later in the virtual-clock deadlock timeout the same bug
    produces unarmed.
    """


class CountLimitError(MPIError):
    """Raised when a single I/O or communication call exceeds the 2 GB
    (signed 32-bit element count) ROMIO limitation described in §3 of the
    paper.  The reproduction enforces the same limit so that the block-size
    handling code paths stay honest."""
