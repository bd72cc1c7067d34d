"""The bit-at-a-time Hilbert encoder and the per-point grid normaliser that
``repro.index.sfc`` replaced with a 1 024-entry table walked four levels a
step, kept as a differential oracle — the way ``_strtree_reference.py``
keeps the retired per-entry index walk.

The functions are the old bodies unchanged.  The live encoder's table is
derived from a loop of this shape, and ``sort_by_hilbert`` must return the
same index *list* as :func:`sort_by_hilbert_reference` for every finite
input.  The one intended difference is non-finite input: the reference
calls ``int()`` on NaN or infinity and raises, where the live sort clamps
in float space.  Not used by any serving path.
"""

from typing import List, Sequence, Tuple

from repro.geometry import Envelope


def hilbert_encode_reference(ix: int, iy: int, order: int = 16) -> int:
    if ix < 0 or iy < 0:
        raise ValueError("Hilbert coordinates must be non-negative")
    side = 1 << order
    if ix >= side or iy >= side:
        raise ValueError(f"coordinates must be < 2**order = {side}")
    rx = ry = 0
    d = 0
    s = side >> 1
    x, y = ix, iy
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        # rotate quadrant
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s >>= 1
    return d


def normalise_to_grid_reference(
    x: float, y: float, extent: Envelope, order: int = 16
) -> Tuple[int, int]:
    if extent.is_empty:
        raise ValueError("extent must not be empty")
    side = (1 << order) - 1
    wx = extent.width or 1.0
    wy = extent.height or 1.0
    ix = int((x - extent.minx) / wx * side)
    iy = int((y - extent.miny) / wy * side)
    return (max(0, min(side, ix)), max(0, min(side, iy)))


def sort_by_hilbert_reference(
    points: Sequence[Tuple[float, float]], extent: Envelope, order: int = 16
) -> List[int]:
    keyed = [
        (
            hilbert_encode_reference(
                *normalise_to_grid_reference(x, y, extent, order), order=order
            ),
            i,
        )
        for i, (x, y) in enumerate(points)
    ]
    keyed.sort()
    return [i for _, i in keyed]
