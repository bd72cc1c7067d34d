"""Record parsing.

The paper's "flexible interface presents the geometric data in those files as
a collection of strings, thereby allowing user to define parsing method that
returns a GEOS geometry for each string" (§4.3).  Every dataset here is WKT
(the OSM extracts), so :class:`WKTParser` is the one parser.
"""

from __future__ import annotations

from typing import Iterable, List

from ..geometry import Geometry, WKTParseError, wkt

__all__ = [
    "WKTParser",
    "split_records",
]

#: record delimiter (WKT datasets are newline-delimited)
RECORD_DELIMITER = b"\n"


class WKTParser:
    """WKT records, optionally followed by tab-separated attributes which are
    preserved in the geometry's ``userdata``."""

    def parse_many(self, records: Iterable[str]) -> List[Geometry]:
        """Parse a collection of strings, dropping blanks and invalid records."""
        out: List[Geometry] = []
        for record in records:
            stripped = record.strip()
            if not stripped:
                continue
            try:
                out.append(wkt.loads(stripped))
            except (WKTParseError, ValueError):
                continue
        return out

    def parse_buffer(self, data: bytes) -> List[Geometry]:
        """Parse a raw byte buffer of newline-separated records (this is the
        shape of the data coming out of the file-partitioning layer)."""
        return self.parse_many(data.decode("utf-8", errors="replace").split("\n"))


def split_records(data: bytes) -> List[bytes]:
    """Split a raw buffer into complete records (no trailing partial record —
    the file-partitioning layer guarantees buffers end on a delimiter)."""
    if not data:
        return []
    parts = data.split(RECORD_DELIMITER)
    # a buffer ending exactly on the delimiter produces a trailing empty chunk
    if parts and parts[-1] == b"":
        parts.pop()
    return parts
