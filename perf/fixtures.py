"""Seeded fixtures and their brute-force oracle.

Everything a workload reads is generated here from ``--seed`` — through
explicit ``SyntheticConfig(seed=...)`` (never ``generate_dataset``'s default,
which is ``hash(name)`` and changes per process) and string-seeded
``random.Random`` instances — and written to disk: a simulated-filesystem
directory plus ``fixture.json`` (windows, mutation steps, oracle answers).
The program under test sees only these generated inputs.

The oracle is brute force over *all* geometries: a numpy envelope test, then
the exact predicate on every envelope match.  It never touches an index, a
page or the store.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.datasets import SyntheticConfig, generate_polygon_records
from repro.geometry import Envelope, Geometry, Polygon, predicates, wkb, wkt
from repro.pfs import LustreFilesystem
from repro.store import bulk_load, sharded_bulk_load

__all__ = ["SIZES", "Sizes", "build", "digest", "load", "open_fs"]

Window = Tuple[float, float, float, float]

#: windows whose answers are checked against the oracle every round
ORACLE_SAMPLE = 50
#: serving-store layout (the paper's grid partitioning, 4 KiB pages)
NUM_PARTITIONS = 64
PAGE_SIZE = 4096
NUM_SHARDS = 4


@dataclass(frozen=True)
class Sizes:
    join_left: int
    join_right: int
    #: records of the serving stores (serve_warm / serve_cold / serve_sharded)
    lakes: int
    #: windows per round of serve_warm and serve_sharded (the same windows)
    warm_queries: int
    cold_queries: int
    #: serve_cold's page cache as a share of the store's pages
    cold_cache_share: float
    #: windows per front-end batch
    batch: int
    mutate_base: int
    mutate_steps: int
    #: new records per step, and deletes = updates per step
    mutate_append: int
    mutate_churn: int
    mutate_queries: int
    #: fixture builds per untraced run (``setup_s`` is their median)
    setup_repeats: int


SIZES: Dict[str, Sizes] = {
    "full": Sizes(join_left=2000, join_right=400, lakes=10_000, warm_queries=1500,
                  cold_queries=1000, cold_cache_share=0.11, batch=50,
                  mutate_base=4000, mutate_steps=8, mutate_append=250, mutate_churn=12,
                  mutate_queries=150, setup_repeats=3),
    "quick": Sizes(join_left=300, join_right=60, lakes=1500, warm_queries=150,
                   cold_queries=150, cold_cache_share=0.25, batch=25,
                   mutate_base=600, mutate_steps=3, mutate_append=60, mutate_churn=4,
                   mutate_queries=50, setup_repeats=1),
}


# ---------------------------------------------------------------------- #
# generators
# ---------------------------------------------------------------------- #
def _polygon_records(count: int, seed: int, size_fraction: float) -> List[str]:
    """Uniformly placed WKT polygon records with ``id=`` attributes."""
    cfg = SyntheticConfig(seed=seed, clusters=1, background_fraction=1.0,
                          mean_size_fraction=size_fraction)
    return list(generate_polygon_records(count, cfg))


def _parse(records: Iterable[str]) -> List[Geometry]:
    return [wkt.loads(record) for record in records]


def _windows(rng: random.Random, extent: Envelope, count: int, max_fraction: float,
             hot_spots: int = 0) -> List[Window]:
    """*count* rectangles of at most *max_fraction* of the extent per side.

    Side lengths walk a fixed 20-step ladder, so the summed window area — and
    with uniform data the work of a round — is the same for every seed; only
    the placement is random.  With *hot_spots*, every other window is drawn
    around one of that many seeded centres instead of uniformly.
    """
    centres = [(rng.uniform(extent.minx, extent.maxx), rng.uniform(extent.miny, extent.maxy))
               for _ in range(hot_spots)]
    out: List[Window] = []
    for i in range(count):
        fraction = max_fraction * (i % 20 + 1) / 20
        w, h = extent.width * fraction, extent.height * fraction
        if hot_spots and i % 2:
            cx, cy = centres[rng.randrange(hot_spots)]
            x = rng.gauss(cx, extent.width * 0.01) - w / 2
            y = rng.gauss(cy, extent.height * 0.01) - h / 2
        else:
            x = rng.uniform(extent.minx, extent.maxx - w)
            y = rng.uniform(extent.miny, extent.maxy - h)
        out.append((x, y, x + w, y + h))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------- #
# oracle
# ---------------------------------------------------------------------- #
def digest(items: Iterable[Any]) -> str:
    """Order-independent fingerprint of a result set."""
    return hashlib.sha256(repr(sorted(items)).encode("utf-8")).hexdigest()[:16]


def _envelope_columns(geoms: Sequence[Geometry]) -> np.ndarray:
    return np.array([g.envelope.as_tuple() for g in geoms], dtype=float).reshape(-1, 4)


def _range_oracle(ids: Sequence[int], geoms: Sequence[Geometry], cols: np.ndarray,
                  window: Window) -> List[int]:
    """Sorted ids of the geometries intersecting the rectangle *window*."""
    x0, y0, x1, y1 = window
    mask = (cols[:, 0] <= x1) & (cols[:, 2] >= x0) & (cols[:, 1] <= y1) & (cols[:, 3] >= y0)
    rect = Polygon.from_envelope(Envelope(x0, y0, x1, y1))
    return sorted(ids[i] for i in np.flatnonzero(mask) if predicates.intersects(rect, geoms[i]))


def _sample_oracle(ids: Sequence[int], geoms: Sequence[Geometry],
                   windows: Sequence[Window]) -> Dict[str, List[int]]:
    cols = _envelope_columns(geoms)
    step = max(1, len(windows) // ORACLE_SAMPLE)
    return {str(i): _range_oracle(ids, geoms, cols, windows[i])
            for i in range(0, len(windows), step)}


def _join_oracle(left: Sequence[Geometry], right: Sequence[Geometry]) -> List[Tuple[str, str]]:
    lc, rc = _envelope_columns(left), _envelope_columns(right)
    pairs: List[Tuple[str, str]] = []
    for j, (x0, y0, x1, y1) in enumerate(rc):
        mask = (lc[:, 0] <= x1) & (lc[:, 2] >= x0) & (lc[:, 1] <= y1) & (lc[:, 3] >= y0)
        pairs.extend((left[i].userdata, right[j].userdata) for i in np.flatnonzero(mask)
                     if predicates.intersects(left[i], right[j]))
    return pairs


# ---------------------------------------------------------------------- #
# per-workload builders
# ---------------------------------------------------------------------- #
def open_fs(root: Path) -> LustreFilesystem:
    """The COMET-like Lustre model over the fixture's backing directory."""
    return LustreFilesystem(root / "fs", ost_count=16)


def _build_join(root: Path, seed: int, sizes: Sizes) -> Dict[str, Any]:
    fs = open_fs(root)
    layers: Dict[str, List[Geometry]] = {}
    for name, count, stream in (("lakes", sizes.join_left, 1), ("cemetery", sizes.join_right, 2)):
        records = _polygon_records(count, seed * 8 + stream, size_fraction=0.004)
        fs.create_file(f"datasets/{name}.wkt", ("\n".join(records) + "\n").encode("utf-8"))
        layers[name] = _parse(records)
    pairs = _join_oracle(layers["lakes"], layers["cemetery"])
    return {"ops": sizes.join_left + sizes.join_right, "digest": digest(pairs)}


def _build_store(root: Path, seed: int, sizes: Sizes, workload: str) -> Dict[str, Any]:
    fs = open_fs(root)
    geoms = _parse(_polygon_records(sizes.lakes, seed * 8 + 3, size_fraction=0.002))
    loaded = bulk_load(fs, "lakes", geoms, num_partitions=NUM_PARTITIONS, page_size=PAGE_SIZE)
    if workload == "serve_sharded":
        sharded_bulk_load(fs, "lakes4", geoms, num_shards=NUM_SHARDS,
                          num_partitions=NUM_PARTITIONS, page_size=PAGE_SIZE)
    extent = loaded.manifest.extent
    if workload == "serve_cold":
        windows = _windows(random.Random(f"{seed}:cold"), extent, sizes.cold_queries, 0.05,
                           hot_spots=8)
    else:
        # serve_warm and serve_sharded replay the same windows
        windows = _windows(random.Random(f"{seed}:warm"), extent, sizes.warm_queries, 0.05)
    return {"ops": len(windows), "windows": windows, "batch": sizes.batch,
            "num_pages": loaded.num_pages,
            "cold_cache_pages": round(sizes.cold_cache_share * loaded.num_pages),
            # serve_cold's read amplification: bytes read per WKB byte returned
            "wkb_len": [len(wkb.dumps(g)) for g in geoms] if workload == "serve_cold" else None,
            "oracle": _sample_oracle(range(len(geoms)), geoms, windows)}


def _build_mutate(root: Path, seed: int, sizes: Sizes) -> Dict[str, Any]:
    fs = open_fs(root)
    per_step = sizes.mutate_append + sizes.mutate_churn
    base = _polygon_records(sizes.mutate_base, seed * 8 + 4, size_fraction=0.002)
    incoming = _polygon_records(sizes.mutate_steps * per_step, seed * 8 + 5, size_fraction=0.002)
    model: Dict[int, Geometry] = dict(enumerate(_parse(base)))
    loaded = bulk_load(fs, "mut", list(model.values()), num_partitions=16, page_size=PAGE_SIZE)
    windows = _windows(random.Random(f"{seed}:mutate-windows"), loaded.manifest.extent,
                       sizes.mutate_queries, 0.08)

    rng = random.Random(f"{seed}:mutate")
    next_id = len(model)
    steps: List[Dict[str, Any]] = []
    appended_bytes = 0
    for s in range(sizes.mutate_steps):
        records = incoming[s * per_step:(s + 1) * per_step]
        victims = rng.sample(sorted(model), 2 * sizes.mutate_churn)
        deletes, updates = victims[:sizes.mutate_churn], victims[sizes.mutate_churn:]
        record_ids = list(range(next_id, next_id + sizes.mutate_append)) + updates
        next_id += sizes.mutate_append
        for rid in deletes:
            del model[rid]
        for rid, geom in zip(record_ids, _parse(records)):
            model[rid] = geom
            appended_bytes += len(wkb.dumps(geom))
        steps.append({"records": records, "record_ids": record_ids, "deletes": deletes,
                      "oracle": _sample_oracle(list(model), list(model.values()), windows)})
    return {"ops": sizes.mutate_steps * (per_step + len(windows)) + len(windows),
            "windows": windows, "steps": steps, "appended_user_bytes": appended_bytes,
            "live_user_bytes": sum(len(wkb.dumps(g)) for g in model.values())}


def build(workload: str, root: Path, seed: int, sizes: Sizes) -> None:
    """Write *workload*'s fixture (``fs/`` + ``fixture.json``) under *root*."""
    root.mkdir(parents=True)
    if workload == "pipeline_join":
        fixture = _build_join(root, seed, sizes)
    elif workload == "mutate_serve":
        fixture = _build_mutate(root, seed, sizes)
    else:
        fixture = _build_store(root, seed, sizes, workload)
    (root / "fixture.json").write_text(json.dumps(fixture), encoding="utf-8")


def load(root: Path) -> Dict[str, Any]:
    return json.loads((root / "fixture.json").read_text(encoding="utf-8"))
