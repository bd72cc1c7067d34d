"""Pluggable record parsers.

The paper's "flexible interface presents the geometric data in those files as
a collection of strings, thereby allowing user to define parsing method that
returns a GEOS geometry for each string" (§4.3).  :class:`GeometryParser` is
that interface; :class:`WKTParser` is the concrete implementation used for the
OSM extracts.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, List, Optional

from ..geometry import Geometry, WKTParseError, wkt

__all__ = [
    "GeometryParser",
    "WKTParser",
    "ParseStats",
    "split_records",
]


class ParseStats:
    """Counters a parser accumulates (useful for Table 3 style reports)."""

    def __init__(self) -> None:
        self.records = 0
        self.parsed = 0
        self.failed = 0
        self.total_vertices = 0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ParseStats(records={self.records}, parsed={self.parsed}, "
            f"failed={self.failed}, vertices={self.total_vertices})"
        )


class GeometryParser(ABC):
    """Parse one record (a text line) into a geometry."""

    def __init__(self) -> None:
        self.stats = ParseStats()

    @abstractmethod
    def parse_record(self, record: str) -> Optional[Geometry]:
        """Parse a single record; return ``None`` for non-geometry lines."""

    # ------------------------------------------------------------------ #
    def parse(self, record: str) -> Optional[Geometry]:
        """Parse one record, updating stats; an invalid record counts as
        failed and parses to ``None``."""
        self.stats.records += 1
        stripped = record.strip()
        if not stripped:
            return None
        try:
            geom = self.parse_record(stripped)
        except (WKTParseError, ValueError):
            self.stats.failed += 1
            return None
        if geom is None:
            self.stats.failed += 1
            return None
        self.stats.parsed += 1
        self.stats.total_vertices += geom.num_points
        return geom

    def parse_many(self, records: Iterable[str]) -> List[Geometry]:
        """Parse a collection of strings, dropping blanks and failures."""
        out: List[Geometry] = []
        for record in records:
            geom = self.parse(record)
            if geom is not None:
                out.append(geom)
        return out

    def parse_buffer(self, data: bytes) -> List[Geometry]:
        """Parse a raw byte buffer of newline-separated records (this is the
        shape of the data coming out of the file-partitioning layer)."""
        return self.parse_many(data.decode("utf-8", errors="replace").split("\n"))


class WKTParser(GeometryParser):
    """WKT records, optionally followed by tab-separated attributes which are
    preserved in the geometry's ``userdata``."""

    def parse_record(self, record: str) -> Optional[Geometry]:
        return wkt.loads(record)


def split_records(data: bytes, delimiter: bytes = b"\n") -> List[bytes]:
    """Split a raw buffer into complete records (no trailing partial record —
    the file-partitioning layer guarantees buffers end on a delimiter)."""
    if not data:
        return []
    parts = data.split(delimiter)
    # a buffer ending exactly on the delimiter produces a trailing empty chunk
    if parts and parts[-1] == b"":
        parts.pop()
    return parts
