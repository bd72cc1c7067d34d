"""Byte surgery on a generation container for the damage tests.

A container's metadata tail, ``[index_offset, EOF)`` (the packed index, the
page directory and the checksum table), is covered by the header's CRC32,
so the open refuses any edit of it.  A test that damages a tail byte on
purpose, to reach a check that sits behind that CRC, re-seals the header
after the edit with :func:`reseal`; :class:`TailFaults` aims injected read
faults at the open's read of that tail.
"""

from repro.faults import FaultyFilesystem
from repro.store import format as fmt


class TailFaults(FaultyFilesystem):
    """Injects faults only into reads past a container's header: the open's
    read of the metadata tail."""

    def _filter_pread(self, path, offset, data):
        return super()._filter_pread(path, offset, data) if offset else data


def reseal(blob) -> bytes:
    """*blob* (a container's bytes) with its header's tail CRC recomputed
    over the tail as it now stands."""
    header = fmt.unpack_header(bytes(blob[: fmt.HEADER_SIZE]))
    tail_crc = fmt.page_crc32(bytes(blob[header.index_offset :]))
    return fmt.pack_header(
        header.page_size, header.num_pages, header.num_records, header.dir_offset,
        header.index_offset, tail_crc,
    ) + bytes(blob[fmt.HEADER_SIZE :])
