"""Store-suite fixtures: every test here runs with the lockstep collective
check armed (the dynamic half of ``repro.analysis``).

The 1/2/4-rank equality batteries in this directory are exactly the
programs the verifier is meant to guard — rank-conditional serving logic
around collectives — so arming them by default means any divergence a
future change introduces fails immediately with a
``CollectiveMismatchError`` naming both callsites, instead of hanging the
suite until the mpisim deadlock timeout fires.
"""

from dataclasses import replace

import pytest

from repro.analysis import set_collective_check_default
from repro.store import format as fmt


@pytest.fixture(autouse=True)
def armed_collective_check():
    """Arm the lockstep verifier for every communicator these tests build."""
    previous = set_collective_check_default(True)
    yield
    set_collective_check_default(previous)


def _rewrite_container_as_v1(fs, path, checksums=False):
    """Re-encode the page container at *path* in the retired v1 page layout,
    in place — the bytes a v1-era writer produced.  Slots keep their order,
    so the packed index and the manifest beside the container stay valid."""
    blob = fs.backing_path(path).read_bytes()
    header = fmt.unpack_header(blob, file_size=len(blob))
    tail = header.dir_offset + header.dir_nbytes
    metas, payloads, offset = [], [], fmt.HEADER_SIZE
    for meta in fmt.unpack_page_directory(blob[header.dir_offset : tail], header.num_pages):
        records = fmt.decode_page(blob[meta.offset : meta.offset + meta.nbytes], 2)
        payloads.append(fmt.encode_page([fmt.encode_record(rid, g) for rid, g in records]))
        metas.append(
            replace(meta, offset=offset, nbytes=len(payloads[-1]),
                    crc32=fmt.page_crc32(payloads[-1]))
        )
        offset += len(payloads[-1])
    fs.create_file(
        path,
        fmt.pack_header(header.page_size, header.num_pages, header.num_records, offset,
                        version=1, flags=fmt.FLAG_PAGE_CHECKSUMS if checksums else 0)
        + b"".join(payloads)
        + fmt.pack_page_directory(metas)
        + (fmt.pack_page_checksums(metas) if checksums else b""),
    )


@pytest.fixture(scope="session")
def rewrite_container_as_v1():
    """The v1 container builder (``bulk_load`` lost ``format_version``):
    ``rewrite_container_as_v1(fs, path, checksums=False)``."""
    return _rewrite_container_as_v1
