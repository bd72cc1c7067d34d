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
from typing import Dict, List, Mapping, Optional, Sequence

from ..geometry import Geometry, wkb
from ..mpisim import Communicator

__all__ = ["serialise_cell_group", "deserialise_cell_group", "exchange_cells"]


# --------------------------------------------------------------------------- #
# serialisation
# --------------------------------------------------------------------------- #
def serialise_cell_group(cells: Mapping[int, Sequence[Geometry]]) -> bytes:
    """Serialise ``{cell_id: [geometries]}`` into one contiguous byte buffer.

    Layout per geometry: ``<cell_id:uint32><wkb_len:uint32><ud_len:uint32>``
    followed by the WKB payload and the pickled userdata.  The explicit
    length prefixes play the role of MPI's count/displacement arrays.
    """
    out = bytearray()
    for cell_id, geoms in cells.items():
        for geom in geoms:
            body = wkb.dumps(geom)
            userdata = b"" if geom.userdata is None else pickle.dumps(geom.userdata, protocol=4)
            out += struct.pack("<III", cell_id, len(body), len(userdata))
            out += body
            out += userdata
    return bytes(out)


def deserialise_cell_group(data: bytes) -> Dict[int, List[Geometry]]:
    """Inverse of :func:`serialise_cell_group`.

    The length prefixes are untrusted: a buffer cut inside a prefix, a body
    or a userdata block raises :class:`ValueError` naming the record's
    offset instead of decoding a short slice.
    """
    cells: Dict[int, List[Geometry]] = {}
    pos = 0
    total = len(data)
    while pos < total:
        if pos + 12 > total:
            raise ValueError(
                f"truncated cell group: record prefix at offset {pos} overruns "
                f"the {total}-byte buffer"
            )
        cell_id, body_len, ud_len = struct.unpack_from("<III", data, pos)
        pos += 12
        if pos + body_len + ud_len > total:
            raise ValueError(
                f"truncated cell group: record at offset {pos - 12} declares {body_len} "
                f"body + {ud_len} userdata bytes, {total - pos} remain"
            )
        geom = wkb.loads(data[pos : pos + body_len])
        pos += body_len
        if ud_len:
            geom.userdata = pickle.loads(data[pos : pos + ud_len])
            pos += ud_len
        cells.setdefault(cell_id, []).append(geom)
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
