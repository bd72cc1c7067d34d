"""MPI-IO info hints.

Mirrors the ``MPI_Info`` key/value hints the paper tunes: ``cb_nodes`` (number
of collective-buffering aggregators), ``cb_buffer_size`` (per-aggregator
buffer, which forces multi-cycle two-phase I/O when the per-aggregator share
exceeds it), plus the Lustre striping hints.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

__all__ = ["Info", "DEFAULT_CB_BUFFER_SIZE"]

#: ROMIO's default collective-buffering buffer size (16 MB)
DEFAULT_CB_BUFFER_SIZE = 16 * 1024 * 1024

_KNOWN_KEYS = {
    "cb_nodes",
    "cb_buffer_size",
    "cb_block_size",
    "romio_cb_read",
    "romio_cb_write",
    "striping_factor",
    "striping_unit",
    "independent_concurrency",
}


class Info:
    """A small, typed wrapper over the MPI_Info key/value hint dictionary."""

    def __init__(self, **hints: object) -> None:
        self._data: Dict[str, str] = {}
        for key, value in hints.items():
            self.set(key, value)

    # -- mpi4py style API --------------------------------------------------- #
    def set(self, key: str, value: object) -> None:
        if key not in _KNOWN_KEYS:
            raise KeyError(f"unknown MPI-IO hint {key!r}; known hints: {sorted(_KNOWN_KEYS)}")
        self._data[key] = str(value)

    Set = set

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self._data.get(key, default)

    Get = get

    def get_int(self, key: str, default: int) -> int:
        raw = self._data.get(key)
        if raw is None:
            return default
        return int(raw)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def items(self):
        return self._data.items()

    def copy(self) -> "Info":
        new = Info()
        new._data = dict(self._data)
        return new

    def __repr__(self) -> str:  # pragma: no cover
        return f"Info({self._data})"
