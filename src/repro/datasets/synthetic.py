"""Synthetic vector data generators.

The paper evaluates on OpenStreetMap extracts ranging from 56 MB to 137 GB
(Table 3).  Those files are public but far larger than this environment can
hold, so the generators below produce *OSM-like* synthetic data with the same
qualitative properties the paper's machinery has to cope with:

* mixed geometry types (polygons, polylines, points),
* heavily skewed vertex counts (log-normal, with a long tail so a few
  geometries are orders of magnitude larger than the median — the paper's
  largest polygon is 11 MB),
* spatially skewed placement (clustered around a handful of "urban" centres),
* WKT text records of very different lengths on a single file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from ..geometry import Envelope

__all__ = [
    "SyntheticConfig",
    "polygon_wkt",
    "polyline_wkt",
    "point_wkt",
    "generate_polygon_records",
    "generate_polyline_records",
    "generate_point_records",
    "generate_mixed_records",
]

Coord = Tuple[float, float]

#: mean vertex count of polygons / polylines
_MEAN_VERTICES = 12
#: log-normal sigma of the vertex-count distribution (bigger = more skew)
_VERTEX_SIGMA = 0.9
#: hard cap on vertices per geometry (keeps records bounded)
_MAX_VERTICES = 4096


@dataclass
class SyntheticConfig:
    """Knobs shared by every generator."""

    #: world extent the data lives in (roughly lon/lat degrees by default)
    extent: Envelope = field(default_factory=lambda: Envelope(-180.0, -90.0, 180.0, 90.0))
    #: RNG seed (generators are deterministic given the seed)
    seed: int = 2018
    #: number of spatial clusters ("cities") the data concentrates around
    clusters: int = 12
    #: fraction of geometries placed uniformly instead of in a cluster
    background_fraction: float = 0.2
    #: typical geometry diameter as a fraction of the extent
    mean_size_fraction: float = 0.002


class _Placer:
    """Draws geometry centres from a clustered + background mixture."""

    def __init__(self, cfg: SyntheticConfig, rng: random.Random) -> None:
        self.cfg = cfg
        self.rng = rng
        ext = cfg.extent
        self.centres = [
            (rng.uniform(ext.minx, ext.maxx), rng.uniform(ext.miny, ext.maxy))
            for _ in range(max(1, cfg.clusters))
        ]
        # cluster spreads vary, producing dense "cities" and sparse "regions"
        self.spreads = [
            max(ext.width, ext.height) * rng.uniform(0.005, 0.06) for _ in self.centres
        ]

    def centre(self) -> Coord:
        ext = self.cfg.extent
        if self.rng.random() < self.cfg.background_fraction:
            return (self.rng.uniform(ext.minx, ext.maxx), self.rng.uniform(ext.miny, ext.maxy))
        idx = self.rng.randrange(len(self.centres))
        cx, cy = self.centres[idx]
        s = self.spreads[idx]
        x = min(max(self.rng.gauss(cx, s), ext.minx), ext.maxx)
        y = min(max(self.rng.gauss(cy, s), ext.miny), ext.maxy)
        return (x, y)


def _vertex_count(rng: random.Random, minimum: int) -> int:
    mu = math.log(max(_MEAN_VERTICES, minimum))
    n = int(rng.lognormvariate(mu, _VERTEX_SIGMA))
    return max(minimum, min(_MAX_VERTICES, n))


def _fmt(value: float) -> str:
    return f"{value:.6f}"


# --------------------------------------------------------------------------- #
# single-geometry WKT builders
# --------------------------------------------------------------------------- #
def polygon_wkt(centre: Coord, radius: float, vertices: int, rng: random.Random) -> str:
    """A star-convex polygon around *centre* with jittered radii (never
    self-intersecting, arbitrary vertex count)."""
    cx, cy = centre
    coords: List[str] = []
    first: Optional[str] = None
    for i in range(vertices):
        angle = 2.0 * math.pi * i / vertices
        r = radius * rng.uniform(0.55, 1.0)
        x, y = cx + r * math.cos(angle), cy + r * math.sin(angle)
        token = f"{_fmt(x)} {_fmt(y)}"
        coords.append(token)
        if first is None:
            first = token
    coords.append(first or "0 0")
    return f"POLYGON (({', '.join(coords)}))"


def polyline_wkt(start: Coord, segment_length: float, vertices: int, rng: random.Random) -> str:
    """A random-walk polyline (a road / river)."""
    x, y = start
    heading = rng.uniform(0.0, 2.0 * math.pi)
    coords = [f"{_fmt(x)} {_fmt(y)}"]
    for _ in range(vertices - 1):
        heading += rng.gauss(0.0, 0.5)
        x += segment_length * math.cos(heading)
        y += segment_length * math.sin(heading)
        coords.append(f"{_fmt(x)} {_fmt(y)}")
    return f"LINESTRING ({', '.join(coords)})"


def point_wkt(location: Coord) -> str:
    return f"POINT ({_fmt(location[0])} {_fmt(location[1])})"


# --------------------------------------------------------------------------- #
# record streams
# --------------------------------------------------------------------------- #
def generate_polygon_records(count: int, config: Optional[SyntheticConfig] = None) -> Iterator[str]:
    """Yield *count* WKT polygon records (one per line, no newline), each
    followed by tab-separated attributes."""
    cfg = config or SyntheticConfig()
    rng = random.Random(cfg.seed)
    placer = _Placer(cfg, rng)
    base_size = max(cfg.extent.width, cfg.extent.height) * cfg.mean_size_fraction
    for i in range(count):
        vertices = _vertex_count(rng, minimum=3)
        radius = base_size * rng.lognormvariate(0.0, 0.8)
        record = polygon_wkt(placer.centre(), radius, vertices, rng)
        yield record + f"\tid={i}\tlanduse={'water' if i % 7 == 0 else 'land'}"


def generate_polyline_records(count: int, config: Optional[SyntheticConfig] = None) -> Iterator[str]:
    """Yield *count* WKT linestring records (roads / river segments)."""
    cfg = config or SyntheticConfig()
    rng = random.Random(cfg.seed + 1)
    placer = _Placer(cfg, rng)
    seg = max(cfg.extent.width, cfg.extent.height) * cfg.mean_size_fraction * 0.5
    for i in range(count):
        vertices = max(2, _vertex_count(rng, minimum=2))
        record = polyline_wkt(placer.centre(), seg, vertices, rng)
        yield record + f"\tid={i}\thighway={'primary' if i % 5 == 0 else 'residential'}"


def generate_point_records(count: int, config: Optional[SyntheticConfig] = None) -> Iterator[str]:
    """Yield *count* WKT point records (OSM nodes / taxi pickups)."""
    cfg = config or SyntheticConfig()
    rng = random.Random(cfg.seed + 2)
    placer = _Placer(cfg, rng)
    for i in range(count):
        yield point_wkt(placer.centre()) + f"\tid={i}"


def generate_mixed_records(count: int, config: Optional[SyntheticConfig] = None) -> Iterator[str]:
    """Yield a mixed stream of polygons / lines / points ("All Objects"):
    half polygons, 30 % lines, the rest points."""
    cfg = config or SyntheticConfig()
    rng = random.Random(cfg.seed + 3)
    polys = generate_polygon_records(count, cfg)
    lines = generate_polyline_records(count, cfg)
    points = generate_point_records(count, cfg)
    for _ in range(count):
        draw = rng.random()
        if draw < 0.5:
            yield next(polys)
        elif draw < 0.8:
            yield next(lines)
        else:
            yield next(points)
