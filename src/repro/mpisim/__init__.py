"""Simulated MPI runtime (threads + virtual time).

Quick example::

    from repro import mpisim
    from repro.mpisim import ops

    def program(comm):
        local = comm.rank + 1
        return comm.allreduce(local, ops.SUM)

    result = mpisim.run_spmd(program, nprocs=4)
    assert result.values == [10, 10, 10, 10]
"""

from . import datatypes, ops
from .clock import CommCostModel, VirtualClock
from .comm import Communicator
from .datatypes import (
    MPI_BYTE,
    MPI_DOUBLE,
    MPI_FLOAT,
    MPI_INT,
    Datatype,
    create_contiguous,
    create_indexed,
    create_struct,
    create_vector,
)
from .errors import CountLimitError, MPIAbortError, MPIError, RankFaultError
from .ops import Op
from .runtime import run_spmd
from .status import ANY_SOURCE, ANY_TAG, Request, Status
from .world import World, payload_nbytes

__all__ = [
    "run_spmd",
    "Communicator",
    "World",
    "VirtualClock",
    "CommCostModel",
    "Datatype",
    "create_contiguous",
    "create_vector",
    "create_indexed",
    "create_struct",
    "MPI_BYTE",
    "MPI_INT",
    "MPI_FLOAT",
    "MPI_DOUBLE",
    "Op",
    "ops",
    "datatypes",
    "Status",
    "Request",
    "ANY_SOURCE",
    "ANY_TAG",
    "MPIError",
    "MPIAbortError",
    "CountLimitError",
    "RankFaultError",
    "payload_nbytes",
]
