"""Lazily-decoded page images held by the page cache.

The paper's filter-and-refine discipline (§4.1, §5) applied to one page: the
cache keeps the **raw payload** plus the cheap-to-parse metadata — flat
``array``-module columns of record ids, body offsets and the envelope
column, decoded from the page's on-disk column — and a record body is
WKB/pickle-decoded only when a query actually needs that slot.  Decoded
geometries are memoised per slot, so a page that stays cached pays each
decode at most once no matter how many queries touch it.

The columns are deliberately *flat arrays*, not per-slot tuples: the refine
phase (:meth:`repro.store.engine.RefineExecutor.refine`) gathers ids with one
``map(record_ids.__getitem__, slots)``, classifies survivors in one loop
reading the four coordinate columns and probes the decode memo by slot, so it
never touches a per-slot object; the page offers it no per-page helper
beyond :meth:`CachedPage.env_summary` (a window touches ≈ 3 slots a page —
a call and a mask list per page cost more than the comparisons they wrap).
"""

from __future__ import annotations

from array import array
from operator import le
from typing import Callable, List, Optional, Tuple

from ..geometry import Envelope, Geometry
from .format import (
    PageChecksumError,
    decode_page_columns,
    decode_record_body,
    page_crc32,
    record_frame,
)

__all__ = ["CachedPage", "check_page_crc"]

_INF = float("inf")


def check_page_crc(page_id: int, payload: bytes, expected_crc: int) -> None:
    """Raise :class:`~repro.store.format.PageChecksumError` unless *payload*
    matches its checksum-table entry *expected_crc* — the whole check a
    readahead page gets at read time (it is parsed on its first demand)."""
    actual = page_crc32(payload)
    if actual != expected_crc:
        raise PageChecksumError(
            f"page {page_id} failed its checksum: crc32 {actual:#010x}, "
            f"expected {expected_crc:#010x}",
            page_id=page_id,
        )


class CachedPage:
    """One page of a store container, decoded on demand.

    ``record_ids[slot]`` and ``envelope(slot)`` are available without
    touching any record body; :meth:`record` decodes a single slot and
    memoises it.  *on_decode* is called with the number of records actually
    decoded, which is how the store's ``records_decoded`` statistic counts
    refine-phase work instead of page-touch work.

    *expected_crc* (the page's checksum-table entry) is verified against
    the payload **before** any parsing: a corrupted page raises
    :class:`~repro.store.format.PageChecksumError` even when the damage
    would still parse — a bit-flip inside a WKB coordinate decodes into a
    perfectly valid wrong geometry, and only the checksum can tell.
    ``None`` says :func:`check_page_crc` already passed the payload (a
    readahead page, parsed on its first demand).
    """

    __slots__ = (
        "page_id",
        "payload",
        "count",
        "record_ids",
        "body_offsets",
        "minxs",
        "minys",
        "maxxs",
        "maxys",
        "_env_summary",
        "memo",
        "_on_decode",
    )

    def __init__(
        self,
        page_id: int,
        payload: bytes,
        expected_crc: Optional[int],
        on_decode: Optional[Callable[[int], None]] = None,
    ) -> None:
        if expected_crc is not None:
            check_page_crc(page_id, payload, expected_crc)
        self.page_id = page_id
        self.payload = payload
        self._on_decode = on_decode
        self._env_summary: Optional[Tuple[float, float, float, float, bool]] = None
        ids, offsets, minxs, minys, maxxs, maxys = decode_page_columns(payload)
        self.count = len(ids)
        self.record_ids = array("I", ids)
        self.body_offsets = array("I", offsets)
        self.minxs = array("d", minxs)
        self.minys = array("d", minys)
        self.maxxs = array("d", maxxs)
        self.maxys = array("d", maxys)
        #: decoded geometry per slot, ``None`` until :meth:`record` decodes it
        #: — a column like the others: the refine loop reads it by slot (test
        #: ``is None``: an empty geometry is falsy) and only `record` writes it
        self.memo: List[Optional[Geometry]] = [None] * self.count

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.count

    def env_summary(self) -> Tuple[float, float, float, float, bool]:
        """``(minx, miny, maxx, maxy, has_bad)`` over the whole column.

        The page-level containment fast path: when a rectangular window
        contains these bounds and no slot MBR is *bad* — empty (its ±inf
        sentinels pass the bounds vacuously), inverted or NaN (``min`` and
        ``max`` skip a NaN that is not in the first slot, and a NaN is never
        contained) — **every** slot on the page is contained and the
        per-slot pass is skipped.  Computed once per page image (C-speed
        ``min``/``max`` folds; ``le`` is False for a NaN).
        """
        summary = self._env_summary
        if summary is None:
            if not self.count:
                summary = (_INF, _INF, -_INF, -_INF, False)
            else:
                minxs, minys, maxxs, maxys = self.minxs, self.minys, self.maxxs, self.maxys
                has_bad = not all(map(le, minxs, maxxs)) or not all(map(le, minys, maxys))
                summary = (min(minxs), min(minys), max(maxxs), max(maxys), has_bad)
            self._env_summary = summary
        return summary

    def envelope(self, slot: int) -> Envelope:
        """The slot's MBR from the envelope column."""
        return Envelope(
            self.minxs[slot], self.minys[slot], self.maxxs[slot], self.maxys[slot]
        )

    def frame(self, slot: int) -> bytes:
        """The slot's stored record body, byte for byte — what compaction
        moves undecoded (:func:`~repro.store.format.record_frame`)."""
        return record_frame(self.payload, self.body_offsets[slot])

    def record(self, slot: int) -> Tuple[int, Geometry]:
        """Decode (and memoise) one slot — the refine phase for that record."""
        geom = self.memo[slot]
        if geom is None:
            # the stored MBR is the envelope: a box by the writers' gate, CRC-checked
            mbr = (self.minxs[slot], self.minys[slot], self.maxxs[slot], self.maxys[slot])
            geom = decode_record_body(self.payload, self.body_offsets[slot], mbr)
            self.memo[slot] = geom
            if self._on_decode is not None:
                self._on_decode(1)
        return self.record_ids[slot], geom
