"""Communication-buffer management and all-to-all geometry exchange.

§4.2.3 of the paper: every rank serialises, per destination rank, the
coordinates and attribute text of the geometries assigned to that rank's
cells; the ranks first exchange buffer sizes with ``MPI_Alltoall`` and then
the payload with ``MPI_Alltoallv``.  For large datasets the exchange is broken
into *sliding-window* phases, each covering a chunk of the cell space, to
bound memory.

Geometries travel as WKB plus their pickled userdata, grouped by cell id —
the Python equivalent of the char-buffer serialisation the paper describes.
"""

from __future__ import annotations

import pickle
import struct
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..geometry import Geometry, wkb
from ..mpisim import Communicator

__all__ = [
    "encode_body",
    "decode_body",
    "serialise_cell_group",
    "deserialise_cell_group",
    "exchange_cells",
]


# --------------------------------------------------------------------------- #
# serialisation
# --------------------------------------------------------------------------- #
def encode_body(geom: Geometry) -> bytes:
    """One framed record body, ``<wkb_len:uint32><ud_len:uint32>`` followed by
    the WKB payload and the pickled userdata.  The explicit length prefixes
    play the role of MPI's count/displacement arrays; the store's pages hold
    the same bodies, so a geometry round-trips both ways losslessly."""
    body = wkb.dumps(geom)
    userdata = b"" if geom.userdata is None else pickle.dumps(geom.userdata, protocol=4)
    return struct.pack("<II", len(body), len(userdata)) + body + userdata


def serialise_cell_group(cells: Mapping[int, Sequence[Geometry]]) -> bytes:
    """Serialise ``{cell_id: [geometries]}`` into one contiguous byte buffer:
    per geometry ``<cell_id:uint32>`` and its :func:`encode_body`."""
    out = bytearray()
    for cell_id, geoms in cells.items():
        tag = struct.pack("<I", cell_id)
        for geom in geoms:
            out += tag
            out += encode_body(geom)
    return bytes(out)


def decode_body(data, offset: int, envelope=None) -> Tuple[Geometry, int]:
    """``(geometry, offset past the frame)`` of the :func:`encode_body` frame
    at ``data[offset:]`` — the one reader of this framing, for the exchange
    below and the store's pages.  The length prefix is untrusted: a frame
    that does not fit *data* is a :class:`ValueError` (worded to follow the
    caller's "record at offset N"), and the WKB, decoded in place with no
    slice of the body, must fill its declared length exactly
    (:class:`~repro.geometry.wkb.WKBParseError`).  Userdata that does not
    unpickle is a :class:`ValueError` too, chained to the unpickler's error:
    corrupt bytes are the caller's to report, whatever the unpickler raised.
    *envelope* is the record's MBR when the caller holds it (see
    :func:`repro.geometry.wkb.loads`)."""
    pos = offset + 8
    if pos > len(data):
        raise ValueError(f"ends inside its length prefix ({len(data)}-byte buffer)")
    body_len, ud_len = struct.unpack_from("<II", data, offset)
    end = pos + body_len
    stop = end + ud_len
    if stop > len(data):
        raise ValueError(
            f"declares {body_len} body + {ud_len} userdata bytes, {len(data) - pos} remain"
        )
    geom = wkb.loads(data, pos, end, envelope)
    if ud_len:
        try:
            geom.userdata = pickle.loads(data[end:stop])
        except Exception as exc:  # a damaged pickle stream may raise any type
            raise ValueError(
                f"holds {ud_len} userdata bytes that do not unpickle ({exc!r})"
            ) from exc
    return geom, stop


def deserialise_cell_group(data: bytes) -> Dict[int, List[Geometry]]:
    """Inverse of :func:`serialise_cell_group`.

    The length prefixes are untrusted: a buffer cut inside a prefix, a body
    or a userdata block, a body longer than its WKB, or userdata that does
    not unpickle, raises :class:`ValueError` naming the record's offset.
    """
    cells: Dict[int, List[Geometry]] = {}
    pos = 0
    total = len(data)
    while pos < total:
        try:
            geom, stop = decode_body(data, pos + 4)
        except ValueError as exc:
            # the frame's bounds checks raise plain ValueErrors; a frame that
            # fits but does not decode (its WKB or its userdata) is malformed
            if isinstance(exc, wkb.WKBParseError) or exc.__cause__ is not None:
                raise ValueError(f"malformed cell group: record at offset {pos}: {exc}") from exc
            raise ValueError(f"truncated cell group: record at offset {pos} {exc}") from exc
        (cell_id,) = struct.unpack_from("<I", data, pos)  # the frame behind it fitted
        cells.setdefault(cell_id, []).append(geom)
        pos = stop
    return cells


# --------------------------------------------------------------------------- #
# exchange
# --------------------------------------------------------------------------- #
def exchange_cells(
    comm: Communicator,
    local_cells: Mapping[int, Sequence[Geometry]],
    cell_to_rank: Mapping[int, int],
    window: Optional[int] = None,
) -> Dict[int, List[Geometry]]:
    """All-to-all personalised exchange of geometries grouped by cell.

    ``window`` bounds how many cells are exchanged per phase (the paper's
    sliding-window technique for "large data sets [where] it is often not
    possible to perform data exchange in a single phase due to memory
    limitations").  ``None`` exchanges everything in one phase.

    Returns the geometries of the cells owned by this rank (its own local
    contributions included).
    """
    nprocs = comm.size
    num_cells = max(cell_to_rank.keys(), default=-1) + 1
    if window is None or window <= 0 or window >= max(1, num_cells):
        phases = [None]  # single phase covering every cell
    else:
        phases = [range(start, min(start + window, num_cells)) for start in range(0, num_cells, window)]

    owned: Dict[int, List[Geometry]] = {}

    for phase_cells in phases:
        # Group this phase's cells by destination rank.
        per_dest: List[Dict[int, List[Geometry]]] = [dict() for _ in range(nprocs)]
        for cell_id, geoms in local_cells.items():
            if phase_cells is not None and cell_id not in phase_cells:
                continue
            dest = cell_to_rank.get(cell_id)
            if dest is None:
                raise KeyError(f"cell {cell_id} has no rank assignment")
            per_dest[dest].setdefault(cell_id, []).extend(geoms)

        with comm.clock.compute(category="comm_pack"):
            send_buffers = [serialise_cell_group(group) for group in per_dest]

        # Round 1: exchange buffer sizes (MPI_Alltoall) so receivers can size
        # their count/displacement arrays.
        recv_counts = comm.alltoall([len(b) for b in send_buffers])

        # Round 2: exchange the payload (MPI_Alltoallv).
        received = comm.alltoallv(send_buffers)
        for expected, chunk in zip(recv_counts, received):
            if len(chunk) != expected:
                raise RuntimeError(
                    f"alltoallv size mismatch: expected {expected} bytes, got {len(chunk)}"
                )

        with comm.clock.compute(category="comm_pack"):
            for chunk in received:
                if not chunk:
                    continue
                for cell_id, geoms in deserialise_cell_group(chunk).items():
                    owned.setdefault(cell_id, []).extend(geoms)

    return owned
