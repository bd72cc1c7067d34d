"""Simulated parallel filesystem base classes.

A :class:`SimulatedFilesystem` pairs a directory of ordinary local files (the
*backing store*, so reads return real bytes and parsing is genuine) with a
striping description and an :class:`~repro.pfs.costmodel.IOCostModel` that the
MPI-IO layer uses to charge virtual time.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Union

from .costmodel import OPEN_LATENCY, IOCostModel, ReadRequest
from .striping import StripeLayout

__all__ = ["FileHandle", "SimulatedFilesystem"]


class FileHandle:
    """A handle onto one simulated file (read/write real bytes + metadata)."""

    def __init__(self, fs: "SimulatedFilesystem", path: str, mode: str = "r") -> None:
        self.fs = fs
        self.path = path
        self.mode = mode
        backing = fs.backing_path(path)
        if "w" in mode:
            backing.parent.mkdir(parents=True, exist_ok=True)
            if not backing.exists():
                backing.write_bytes(b"")
        if not backing.exists():
            raise FileNotFoundError(f"simulated file {path!r} does not exist")
        flags = os.O_RDWR if ("w" in mode or "+" in mode) else os.O_RDONLY
        self._fd = os.open(backing, flags)
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def layout(self) -> StripeLayout:
        return self.fs.layout_of(self.path)

    @property
    def size(self) -> int:
        return os.fstat(self._fd).st_size

    def pread(self, offset: int, nbytes: int) -> bytes:
        """Read real bytes (clamped at end of file, like POSIX pread)."""
        if nbytes <= 0:
            return b""
        return os.pread(self._fd, nbytes, offset)

    def pwrite(self, offset: int, data: bytes) -> int:
        if "w" not in self.mode and "+" not in self.mode:
            raise PermissionError(f"file {self.path!r} opened read-only")
        return os.pwrite(self._fd, data, offset)

    def close(self) -> None:
        if not self._closed:
            os.close(self._fd)
            self._closed = True

    def __enter__(self) -> "FileHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best effort cleanup
        try:
            self.close()
        except Exception:
            pass


class SimulatedFilesystem:
    """Base class: a named filesystem with a backing directory, default
    striping and a cost model."""

    name = "pfs"

    def __init__(
        self,
        root: Union[str, Path],
        cost_model: Optional[IOCostModel] = None,
        default_layout: Optional[StripeLayout] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.cost_model = cost_model or IOCostModel()
        self.default_layout = default_layout or StripeLayout(stripe_size=1 << 20, stripe_count=1)
        self._layouts: Dict[str, StripeLayout] = {}

    # ------------------------------------------------------------------ #
    # namespace management
    # ------------------------------------------------------------------ #
    def backing_path(self, path: str) -> Path:
        rel = path.lstrip("/")
        return self.root / rel

    def exists(self, path: str) -> bool:
        return self.backing_path(path).exists()

    def file_size(self, path: str) -> int:
        return self.backing_path(path).stat().st_size

    def set_layout(self, path: str, layout: StripeLayout) -> None:
        """Equivalent of ``lfs setstripe`` — must be called before writing for
        real Lustre; the simulation is forgiving and just records it."""
        self._layouts[path.lstrip("/")] = layout

    def layout_of(self, path: str) -> StripeLayout:
        return self._layouts.get(path.lstrip("/"), self.default_layout)

    # ------------------------------------------------------------------ #
    # file creation / access
    # ------------------------------------------------------------------ #
    def create_file(self, path: str, data: Optional[bytes] = None) -> None:
        """Create (or overwrite) a file with *data*; its layout is the one
        :meth:`set_layout` recorded, else the default."""
        backing = self.backing_path(path)
        backing.parent.mkdir(parents=True, exist_ok=True)
        backing.write_bytes(data or b"")

    def remove(self, path: str) -> None:
        """Delete a file (idempotent: a missing path is not an error).

        Store compaction uses this to drop merged delta containers; the
        recorded striping layout is forgotten with the file.
        """
        backing = self.backing_path(path)
        if backing.exists():
            backing.unlink()
        self._layouts.pop(path.lstrip("/"), None)

    def open(self, path: str, mode: str = "r") -> FileHandle:
        return FileHandle(self, path, mode)

    # ------------------------------------------------------------------ #
    # timing hooks (overridden by concrete filesystems)
    # ------------------------------------------------------------------ #
    def open_time(self) -> float:
        return OPEN_LATENCY

    def read_time(
        self,
        path: str,
        requests: List[ReadRequest],
    ) -> float:
        """Simulated makespan of a set of concurrent reads against *path*."""
        return self.cost_model.parallel_read_time(self.layout_of(path), requests)

    def write_time(
        self,
        path: str,
        requests: List[ReadRequest],
    ) -> float:
        """Writes use the same contention model as reads (the paper only
        benchmarks reads; writes exist for the output path of overlay-style
        applications)."""
        return self.cost_model.parallel_read_time(self.layout_of(path), requests)

    def describe(self) -> str:
        return f"{self.name}(root={self.root})"
