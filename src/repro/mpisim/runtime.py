"""SPMD launcher for the simulated MPI runtime.

:func:`run_spmd` is the reproduction's ``mpiexec``: it spawns one Python
thread per rank, hands each a rank-bound
:class:`~repro.mpisim.comm.Communicator`, runs the same function everywhere
and returns the per-rank results (plus the per-rank virtual clocks, for the
benchmarks).

Threads give correct message-passing semantics on a single core; performance
numbers come from the virtual clocks, not from wall time, so the GIL is not a
problem.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from .clock import VirtualClock
from .comm import Communicator
from .errors import MPIAbortError, MPIError
from .world import World

__all__ = ["run_spmd", "SPMDResult"]


@dataclass
class SPMDResult:
    """Outcome of one SPMD run."""

    #: per-rank return values of the target function
    values: List[Any]
    #: per-rank virtual clocks (simulated time and per-category breakdown)
    clocks: List[VirtualClock]
    #: the world object (gives access to shared state such as the filesystem)
    world: World

    @property
    def max_time(self) -> float:
        """Simulated makespan — the per-phase maxima the paper plots are
        derived from the same idea."""
        return max((c.now for c in self.clocks), default=0.0)

    def max_category(self, name: str) -> float:
        """Maximum simulated seconds any rank charged to *name*."""
        return max((c.category(name) for c in self.clocks), default=0.0)


def run_spmd(
    target: Callable[..., Any],
    nprocs: int,
    *args: Any,
    timeout: Optional[float] = 300.0,
    **kwargs: Any,
) -> SPMDResult:
    """Run ``target(comm, *args, **kwargs)`` on *nprocs* simulated ranks.

    Any exception raised by a rank aborts the whole world (all other ranks
    blocked in communication are woken with :class:`MPIAbortError`) and the
    original exception is re-raised here, so test failures surface directly.
    """
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    world = World(nprocs)

    results: List[Any] = [None] * nprocs
    errors: List[Optional[BaseException]] = [None] * nprocs

    def entry(rank: int) -> None:
        comm = Communicator(world, rank)
        try:
            results[rank] = target(comm, *args, **kwargs)
            # armed collective waiters fail fast on peers that can never
            # rejoin them (collective-arity mismatch between ranks)
            world.note_finished(rank)
        except MPIAbortError as exc:  # peer failed; not this rank's fault
            errors[rank] = exc
        except BaseException as exc:  # noqa: BLE001 - must propagate everything
            errors[rank] = exc
            world.abort(exc, rank)

    threads = [
        threading.Thread(target=entry, args=(rank,), name=f"mpisim-rank-{rank}", daemon=True)
        for rank in range(nprocs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
        if t.is_alive():
            # tell a true deadlock (every live rank parked in a recv or a
            # collective) from a long computation that merely outran the
            # timeout — the two need opposite fixes
            alive = sorted(
                rank for rank, th in enumerate(threads) if th.is_alive()
            )
            blocked = world.waiting_ops()
            running = [rank for rank in alive if rank not in blocked]
            if alive and not running:
                detail = ", ".join(f"rank {r} in {blocked[r]}" for r in alive)
                reason = (
                    f"all live ranks blocked in communication ({detail}) — deadlock"
                )
            else:
                reason = (
                    f"rank(s) {running} still running — "
                    f"long computation, not a deadlock?"
                )
            exc = MPIError(
                f"simulated rank {t.name} did not finish within {timeout}s ({reason})"
            )
            world.abort(exc, -1)
            t.join(timeout=5.0)
            raise exc

    # Prefer reporting the root cause over the secondary abort errors.
    primary = world.abort_exception
    if primary is not None:
        raise primary
    for exc in errors:
        if exc is not None:
            raise exc

    return SPMDResult(values=results, clocks=world.clocks, world=world)
