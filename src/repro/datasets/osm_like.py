"""Named OSM-like datasets mirroring Table 3 of the paper.

Table 3 lists six OpenStreetMap extracts (56 MB – 137 GB).  The registry below
keeps the same names, shape types and *relative* sizes but scales the absolute
record counts with a user-chosen factor so the full benchmark matrix runs in
minutes on a laptop-class machine.  ``scale=1.0`` corresponds to the default
benchmark size (thousands of records); the paper's sizes would correspond to a
scale of roughly ``1e4``–``1e5``, far beyond this environment.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from ..pfs import SimulatedFilesystem
from .synthetic import (
    SyntheticConfig,
    generate_mixed_records,
    generate_point_records,
    generate_polygon_records,
    generate_polyline_records,
)

__all__ = ["DatasetSpec", "DATASETS", "generate_dataset", "dataset_path"]


@dataclass(frozen=True)
class DatasetSpec:
    """One named dataset of the evaluation."""

    name: str
    shape: str  # "polygon" | "line" | "point" | "mixed"
    #: record count at scale=1.0
    base_count: int
    #: record count in the paper (for documentation / EXPERIMENTS.md)
    paper_count: str
    #: file size in the paper
    paper_size: str
    #: paper's sequential I/O+parse time in seconds (Table 3 last column)
    paper_seq_seconds: float

    def generator(self, count: int, config: SyntheticConfig) -> Iterator[str]:
        if self.shape == "polygon":
            return generate_polygon_records(count, config)
        if self.shape == "line":
            return generate_polyline_records(count, config)
        if self.shape == "point":
            return generate_point_records(count, config)
        return generate_mixed_records(count, config)


#: Table 3 of the paper, scaled.  Relative sizes are preserved: cemetery is the
#: small layer joined against everything else, all_nodes has the most records.
DATASETS: Dict[str, DatasetSpec] = {
    "cemetery": DatasetSpec("cemetery", "polygon", base_count=400, paper_count="193 K",
                            paper_size="56 MB", paper_seq_seconds=2.1),
    "lakes": DatasetSpec("lakes", "polygon", base_count=4_000, paper_count="8 M",
                         paper_size="9 GB", paper_seq_seconds=328.0),
    "roads": DatasetSpec("roads", "polygon", base_count=10_000, paper_count="72 M",
                         paper_size="24 GB", paper_seq_seconds=786.0),
    "all_objects": DatasetSpec("all_objects", "mixed", base_count=16_000, paper_count="263 M",
                               paper_size="92 GB", paper_seq_seconds=4728.0),
    "road_network": DatasetSpec("road_network", "line", base_count=20_000, paper_count="717 M",
                                paper_size="137 GB", paper_seq_seconds=2873.0),
    "all_nodes": DatasetSpec("all_nodes", "point", base_count=30_000, paper_count="2.7 B",
                             paper_size="96 GB", paper_seq_seconds=3782.0),
}


def dataset_path(name: str) -> str:
    """Canonical path of a named dataset inside a simulated filesystem."""
    return f"datasets/{name}.wkt"


def generate_dataset(
    fs: SimulatedFilesystem,
    name: str,
    scale: float = 1.0,
    config: Optional[SyntheticConfig] = None,
    path: Optional[str] = None,
) -> str:
    """Materialise a named dataset on a simulated filesystem.

    Returns the path the file was written to.  The record count is
    ``base_count * scale`` (minimum 10).
    """
    if name not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(DATASETS)}")
    spec = DATASETS[name]
    count = max(10, int(round(spec.base_count * scale)))
    # crc32, not hash(): str hashes are salted per process, and a named
    # dataset must be the same bytes in every run
    cfg = config or SyntheticConfig(seed=zlib.crc32(name.encode()) % (2**31))
    records = spec.generator(count, cfg)
    payload = "\n".join(records) + "\n"
    target = path or dataset_path(name)
    fs.create_file(target, payload.encode("utf-8"))
    return target
