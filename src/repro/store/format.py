"""On-disk layout of the persistent spatial datastore.

§4.1 of the paper motivates preprocessing vector data into binary form for
"frequent, regular access"; this module is that binary form for the serving
path.  Each generation of a dataset (the base and every delta) is stored as
one *paged container* file:

```
+----------------------+  offset 0
| header (64 bytes)    |  magic, version, page size, counts, index and
|                      |  directory offsets, CRC32 of the metadata tail
+----------------------+  offset 64
| page 0 payload       |  <count:u32>, envelope column, then record bodies
| page 1 payload       |
| ...                  |
+----------------------+  offset = header.index_offset  (metadata tail)
| packed index         |  STR R-tree over the record MBRs
|                      |  (:mod:`repro.store.index_io`)
+----------------------+  offset = header.dir_offset
| page directory       |  one 48-byte entry per page: offset, nbytes, count,
|                      |  and the page MBR (4 doubles)
+----------------------+
| checksum table       |  one CRC32 (u32) per page payload, in page-id order;
|                      |  it ends exactly at the end of the file
+----------------------+
```

There is one layout: the header names version 3 and carries exactly the
``FLAG_PAGE_CHECKSUMS`` bit, and :func:`unpack_header` refuses anything else.
The *metadata tail* — ``[index_offset, EOF)``: the packed index, the page
directory and the checksum table — is what ``open()`` reads, in one request
with the header, and the header's ``tail_crc`` (its CRC32) is checked
before any of it is parsed.  Each page payload has its own CRC32 in the
table, checked when the page is fetched.
A page payload is ``<count:u32>``, then a packed *envelope column* of
``count`` entries ``<record_id:u32><body_offset:u32><4d MBR>`` (40 bytes
each, ``body_offset`` relative to the payload start), then the record bodies
``<wkb_len:u32><ud_len:u32><wkb><pickled userdata>`` back to back.  The
column is the page's *filter* phase made physical: a raw ``struct``-level
scan answers "which slots can match this window" without touching WKB or
pickle, and ``body_offset`` lets the refine phase decode exactly the
surviving slots.

Every record carries a *logical record id*.  A record is stored once per
generation (in its home cell), and an update stores its new version under
the same id in a newer generation, which is what lets queries shadow the
old version.

All multi-byte values are little-endian.  The container is self-describing:
``open()`` needs only the header and the metadata tail to serve queries,
and each page decodes independently, which is what makes the page cache
effective.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

# one record *body* (its id and MBR live in the page's envelope column) is
# the frame the all-to-all exchange ships, so round-trips are lossless
from ..core.exchange import decode_body, encode_body as encode_record_body
from ..geometry import Envelope, Geometry

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER_SIZE",
    "FLAG_PAGE_CHECKSUMS",
    "PAGE_DIR_ENTRY",
    "PAGE_CHECKSUM_ENTRY",
    "ENVELOPE_ENTRY",
    "StoreError",
    "StoreFormatError",
    "PageChecksumError",
    "StoreHeader",
    "PageMeta",
    "PageKey",
    "encode_record_body",
    "decode_page_columns",
    "decode_record_body",
    "encode_page_v2",
    "record_frame",
    "slot_entry",
    "pack_header",
    "unpack_header",
    "pack_page_directory",
    "unpack_page_directory",
    "page_crc32",
]

MAGIC = b"RSPGSTO1"
VERSION = 3
HEADER_SIZE = 64

#: header flag bit: a CRC32 checksum table (one u32 per page, in page-id
#: order) follows the page directory.  Every container carries it, and the
#: header's flag field holds this bit and nothing else.
FLAG_PAGE_CHECKSUMS = 0x1

#: fixed part of the header (the remainder of the 64 bytes is zero padding)
_HEADER = struct.Struct("<8sHHIIQQQI")  # magic, version, flags, page_size,
#                                          num_pages, num_records, dir_offset,
#                                          index_offset, tail_crc

#: one page-directory entry: offset, nbytes, count, page MBR
PAGE_DIR_ENTRY = struct.Struct("<QII4d")

#: one checksum-table entry: CRC32 of the page payload
PAGE_CHECKSUM_ENTRY = struct.Struct("<I")

#: envelope-column entry: record id, body offset (from payload start), MBR
ENVELOPE_ENTRY = struct.Struct("<II4d")

#: per-body prefix: WKB length, userdata length (record id lives in the
#: envelope column)
_BODY_PREFIX = struct.Struct("<II")

_PAGE_COUNT = struct.Struct("<I")


class StoreError(Exception):
    """Base class of every store-serving failure.

    Distributed serving catches low-level decode failures (struct, pickle,
    WKB) at shard boundaries and re-raises them as :class:`StoreError`
    naming the failing shard, so a corrupted shard never surfaces as a raw
    ``struct.error`` in the middle of a collective.
    """


class StoreFormatError(StoreError, ValueError):
    """Raised when a store file is malformed, truncated or mis-versioned."""


class PageChecksumError(StoreError):
    """Raised when a fetched page payload fails its CRC32 check.

    Distinct from :class:`StoreFormatError` because the bytes are *wrong*,
    not merely mis-shaped: a bit-flip inside a record body can still parse
    into a valid-looking (but incorrect) geometry, and only the checksum
    catches it.  The serving layer treats these pages as quarantinable and —
    where replicas exist — recoverable, rather than as fatal corruption.
    """

    def __init__(self, message: str, page_id: int = -1, generation: int = 0) -> None:
        super().__init__(message)
        self.page_id = page_id
        self.generation = generation


class PageKey(NamedTuple):
    """Address of one page across a store's generations.

    Generation 0 is the base container (``data.bin``); generations ``>= 1``
    are delta containers stacked by incremental appends.  Page ids are local
    to their generation's container, so the pair is the cache key and the
    planner's candidate-page key.  Tuple ordering (generation first) is what
    the refine phase's newest-generation-first walk sorts on.
    """

    generation: int
    page_id: int


@dataclass(frozen=True)
class StoreHeader:
    """Decoded container header."""

    page_size: int
    num_pages: int
    num_records: int
    dir_offset: int
    #: start of the metadata tail: the packed index, then the directory
    index_offset: int
    #: CRC32 of the metadata tail, ``[index_offset, EOF)``
    tail_crc: int

    @property
    def index_nbytes(self) -> int:
        return self.dir_offset - self.index_offset


@dataclass(frozen=True)
class PageMeta:
    """One page-directory entry (the page's address and MBR summary)."""

    page_id: int
    offset: int
    nbytes: int
    count: int
    mbr: Envelope
    #: CRC32 of the page payload (its checksum-table entry)
    crc32: int


# --------------------------------------------------------------------------- #
# records and pages
# --------------------------------------------------------------------------- #
def encode_page_v2(entries: Sequence[Tuple[int, Envelope, bytes]]) -> bytes:
    """Pack ``(record_id, envelope, body)`` entries into one page payload:
    the count prefix, the packed envelope column, then the bodies."""
    column = bytearray()
    body_offset = _PAGE_COUNT.size + len(entries) * ENVELOPE_ENTRY.size
    for record_id, env, body in entries:
        column += ENVELOPE_ENTRY.pack(record_id, body_offset, *env.as_tuple())
        body_offset += len(body)
    return (
        _PAGE_COUNT.pack(len(entries))
        + bytes(column)
        + b"".join(body for _, _, body in entries)
    )


def decode_page_columns(payload: bytes) -> Tuple[tuple, tuple, tuple, tuple, tuple, tuple]:
    """Decode a page's envelope column **without touching any body**, as
    six per-slot tuples ``(record_ids, body_offsets, minxs, minys, maxxs,
    maxys)``: one ``struct`` read of the fixed-stride column and six stride
    slices, no per-slot object.  This is the raw material of the filter
    phase; the body offsets must chain through the payload to its last byte.
    """
    size = len(payload)
    if size < _PAGE_COUNT.size:
        raise StoreFormatError("page payload shorter than its count prefix")
    (count,) = _PAGE_COUNT.unpack_from(payload, 0)
    prev = _PAGE_COUNT.size + count * ENVELOPE_ENTRY.size
    if prev > size:
        raise StoreFormatError(
            f"truncated envelope column: {count} slots need {prev} bytes, "
            f"page payload has {size}"
        )
    flat = struct.unpack_from("<" + "II4d" * count, payload, _PAGE_COUNT.size)
    record_ids, body_offsets = flat[0::6], flat[1::6]
    prefix, read_prefix = _BODY_PREFIX.size, _BODY_PREFIX.unpack_from
    for record_id, body_offset in zip(record_ids, body_offsets):
        if body_offset != prev:
            raise StoreFormatError(
                f"envelope column is inconsistent: body of record {record_id} "
                f"at offset {body_offset}, expected {prev}"
            )
        if prev + prefix > size:
            raise StoreFormatError("truncated record body in page payload")
        body_len, ud_len = read_prefix(payload, body_offset)
        prev += prefix + body_len + ud_len
        if prev > size:
            raise StoreFormatError("truncated record body in page payload")
    if prev != size:
        raise StoreFormatError(f"{size - prev} trailing bytes after the last record body")
    return record_ids, body_offsets, flat[2::6], flat[3::6], flat[4::6], flat[5::6]


def slot_entry(payload: bytes, slot: int) -> Tuple[int, int, float, float, float, float]:
    """Slot *slot*'s envelope-column entry, read straight from the payload:
    ``(record_id, body_offset, minx, miny, maxx, maxy)``."""
    return ENVELOPE_ENTRY.unpack_from(payload, _PAGE_COUNT.size + slot * ENVELOPE_ENTRY.size)


def record_frame(payload: bytes, body_offset: int) -> bytes:
    """The record body at *body_offset*, byte for byte: its length prefix,
    WKB and pickled userdata — what compaction and a pickled hit move
    undecoded."""
    wkb_len, ud_len = _BODY_PREFIX.unpack_from(payload, body_offset)
    return payload[body_offset : body_offset + _BODY_PREFIX.size + wkb_len + ud_len]


def decode_record_body(
    payload: bytes, body_offset: int, envelope: Optional[Envelope] = None
) -> Geometry:
    """Decode one record body at *body_offset*, in place (the refine phase:
    WKB and pickle are only ever paid here, for slots that survived the
    filter).  *envelope* is the slot's MBR from the page column; the geometry
    takes it as is.  A body that overruns the payload, or whose WKB is
    malformed or stops short of its declared length, is a
    :class:`StoreFormatError` naming the body."""
    try:
        return decode_body(payload, body_offset, envelope)[0]
    except ValueError as exc:  # the frame does not fit, or its WKB is malformed
        raise StoreFormatError(f"malformed record body at offset {body_offset}: {exc}") from exc


# --------------------------------------------------------------------------- #
# header and page directory
# --------------------------------------------------------------------------- #
def pack_header(page_size: int, num_pages: int, num_records: int, dir_offset: int,
                index_offset: int, tail_crc: int) -> bytes:
    packed = _HEADER.pack(
        MAGIC, VERSION, FLAG_PAGE_CHECKSUMS, page_size, num_pages, num_records, dir_offset,
        index_offset, tail_crc,
    )
    return packed + b"\x00" * (HEADER_SIZE - len(packed))


def unpack_header(data: bytes, file_size: Optional[int] = None) -> StoreHeader:
    """Decode (and sanity-check) a container header.

    Any version but :data:`VERSION`, or a flag field other than exactly
    :data:`FLAG_PAGE_CHECKSUMS`, is a :class:`StoreFormatError`, and so is
    a packed index that does not start between the header and the page
    directory.  When *file_size* is given the page directory and checksum
    table must end exactly there, so a truncated or padded file fails here
    instead of surfacing later as a short read or as pages served
    unchecked.  The metadata tail's CRC is the reader's to check
    (:func:`page_crc32` of ``[index_offset, EOF)`` against ``tail_crc``).
    """
    if len(data) < HEADER_SIZE:
        raise StoreFormatError(
            f"store header needs {HEADER_SIZE} bytes, got {len(data)}"
        )
    (magic, version, flags, page_size, num_pages, num_records, dir_offset, index_offset,
     tail_crc) = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise StoreFormatError(f"bad store magic {magic!r} (expected {MAGIC!r})")
    if version != VERSION:
        raise StoreFormatError(f"unsupported store version {version} (expected {VERSION})")
    if flags != FLAG_PAGE_CHECKSUMS:
        raise StoreFormatError(
            f"store header flags {flags:#06x}, expected {FLAG_PAGE_CHECKSUMS:#06x} "
            f"(the page checksum table)"
        )
    if not HEADER_SIZE <= index_offset <= dir_offset:
        raise StoreFormatError(f"packed index offset {index_offset} is outside "
                               f"[{HEADER_SIZE}, {dir_offset}] (header end, page directory)")
    header = StoreHeader(page_size, num_pages, num_records, dir_offset, index_offset, tail_crc)
    if file_size is not None:
        tail_nbytes = num_pages * (PAGE_DIR_ENTRY.size + PAGE_CHECKSUM_ENTRY.size)
        if dir_offset + tail_nbytes != file_size:
            raise StoreFormatError(
                f"page directory and checksum table [{dir_offset}, "
                f"{dir_offset + tail_nbytes}) do not end the container ({file_size} bytes)"
            )
    return header


def pack_page_directory(metas: Sequence[PageMeta]) -> bytes:
    """Pack the page directory (one entry per page, in page-id order), then
    the per-page CRC32 table that follows it."""
    directory = [PAGE_DIR_ENTRY.pack(meta.offset, meta.nbytes, meta.count, *meta.mbr.as_tuple())
                 for meta in metas]
    return b"".join(directory + [PAGE_CHECKSUM_ENTRY.pack(meta.crc32) for meta in metas])


def page_crc32(payload: bytes) -> int:
    """CRC32 of one page payload (the value stored in the checksum table),
    or of a container's metadata tail (the header's ``tail_crc``)."""
    return zlib.crc32(payload) & 0xFFFFFFFF


def unpack_page_directory(data: bytes, num_pages: int) -> List[PageMeta]:
    """Page directory and the checksum table after it (*data* is exactly
    the two) → one :class:`PageMeta` per page, built once."""
    split = num_pages * PAGE_DIR_ENTRY.size
    if len(data) != split + num_pages * PAGE_CHECKSUM_ENTRY.size:
        raise StoreFormatError(
            f"page directory and checksum table are {len(data)} bytes, expected {num_pages} "
            f"entries of {PAGE_DIR_ENTRY.size} + {PAGE_CHECKSUM_ENTRY.size} bytes")
    metas: List[PageMeta] = []
    prev_end = HEADER_SIZE
    crcs = PAGE_CHECKSUM_ENTRY.iter_unpack(data[split:])
    for page_id, ((offset, nbytes, count, minx, miny, maxx, maxy), (crc,)) in enumerate(
            zip(PAGE_DIR_ENTRY.iter_unpack(data[:split]), crcs)):
        # pages are written back to back in page-id order; the serving
        # path's data sieves rely on that, so a directory violating it
        # is corruption, not a layout variant
        if offset < prev_end:
            raise StoreFormatError(
                f"page directory is not monotonic: page {page_id} at offset "
                f"{offset} overlaps the bytes before it (expected >= {prev_end})"
            )
        prev_end = offset + nbytes
        metas.append(PageMeta(page_id, offset, nbytes, count, Envelope(minx, miny, maxx, maxy), crc))
    return metas
