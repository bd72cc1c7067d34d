"""Message status and request objects."""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

from .datatypes import Datatype

__all__ = ["Status", "Request", "ANY_SOURCE", "ANY_TAG"]

#: wildcard source rank (``MPI_ANY_SOURCE``)
ANY_SOURCE = -1
#: wildcard message tag (``MPI_ANY_TAG``)
ANY_TAG = -1


class Status:
    """Receive status: source, tag and byte count of the matched message.

    ``Get_count`` mirrors ``MPI_Get_count`` — the paper's Algorithm 1 uses it
    to find how many bytes of trailing-geometry data actually arrived when the
    receive buffer was sized for the worst case (11 MB).
    """

    def __init__(self) -> None:
        self.source: int = ANY_SOURCE
        self.tag: int = ANY_TAG
        self.nbytes: int = 0

    def Get_source(self) -> int:
        return self.source

    def Get_tag(self) -> int:
        return self.tag

    def Get_count(self, datatype: Optional[Datatype] = None) -> int:
        """Number of *datatype* elements received (bytes when no type given)."""
        if datatype is None or datatype.size == 0:
            return self.nbytes
        if self.nbytes % datatype.size != 0:
            # MPI would return MPI_UNDEFINED; raising is more useful here.
            raise ValueError(
                f"received {self.nbytes} bytes is not a whole number of "
                f"{datatype.name} elements ({datatype.size} bytes each)"
            )
        return self.nbytes // datatype.size

    def __repr__(self) -> str:  # pragma: no cover
        return f"Status(source={self.source}, tag={self.tag}, nbytes={self.nbytes})"


class Request:
    """Handle for a non-blocking operation (``isend`` / ``irecv``)."""

    def __init__(self, complete_fn: Callable[[], Any]) -> None:
        self._complete_fn = complete_fn
        self._done = False
        self._result: Any = None
        self._lock = threading.Lock()

    def wait(self) -> Any:
        """Block until the operation completes and return its result."""
        with self._lock:
            if not self._done:
                self._result = self._complete_fn()
                self._done = True
            return self._result

    # Capitalised aliases matching mpi4py
    Wait = wait

    def test(self) -> tuple[bool, Any]:
        """Non-destructive completion check.

        The simulated runtime completes operations lazily inside
        :meth:`wait`, so ``test`` simply reports whether ``wait`` has been
        called; this is sufficient for the request patterns the library uses.
        """
        with self._lock:
            return (self._done, self._result)

    Test = test

    @property
    def completed(self) -> bool:
        return self._done
