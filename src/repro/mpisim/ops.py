"""Reduction operators.

Built-in operators mirror MPI's, and :func:`Op.create` mirrors
``MPI_Op_create``: the paper defines new reduction operators for spatial types
(MIN / MAX over lines and rectangles, geometric UNION over rectangles) so that
the "efficiency of built-in MPI reduction operations can be leveraged"
(§4.2.2).  Operators must be associative; commutativity is advisory metadata
exactly as in MPI.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

__all__ = ["Op", "SUM", "MAX", "LOR"]


class Op:
    """A binary reduction operator applied element-wise.

    The callable receives two *elements* (not buffers) and returns the reduced
    element, matching mpi4py's Python-level semantics.  When the reduced
    values are sequences of equal length the runtime applies the operator
    element-wise, as MPI does for ``count > 1``.
    """

    def __init__(self, fn: Callable[[Any, Any], Any], commute: bool = True, name: str = "user_op") -> None:
        self._fn = fn
        self.commute = commute
        self.name = name

    # MPI_Op_create equivalent
    @staticmethod
    def create(fn: Callable[[Any, Any], Any], commute: bool = True, name: str = "user_op") -> "Op":
        """Create a user-defined reduction operator (``MPI_Op_create``)."""
        return Op(fn, commute=commute, name=name)

    # mpi4py spells it Create
    Create = create

    def __call__(self, a: Any, b: Any) -> Any:
        return self._fn(a, b)

    def reduce_elements(self, a: Any, b: Any) -> Any:
        """Apply the operator to two whole operands.

        As in mpi4py's object protocol, the operator sees the complete Python
        value; element-wise behaviour (``count > 1``) is obtained by reducing
        NumPy arrays, whose arithmetic operators are already element-wise.
        """
        return self._fn(a, b)

    def reduce_sequence(self, values: Sequence[Any]) -> Any:
        """Fold *values* left to right (rank order, as MPI requires for
        non-commutative operators)."""
        if len(values) == 0:
            raise ValueError("cannot reduce an empty sequence")
        acc = values[0]
        for v in values[1:]:
            acc = self.reduce_elements(acc, v)
        return acc

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Op {self.name} commute={self.commute}>"


SUM = Op(lambda a, b: a + b, name="MPI_SUM")
MAX = Op(max, name="MPI_MAX")
LOR = Op(lambda a, b: bool(a) or bool(b), name="MPI_LOR")
