"""Synthetic dataset generators standing in for the paper's OSM extracts."""

from .binary import (
    MBR_RECORD_FLOAT32,
    MBR_RECORD_FLOAT64,
    random_envelopes,
    read_mbr_file,
    read_mbr_records,
    validate_record_file,
    write_mbr_file,
)
from .osm_like import DATASETS, DatasetSpec, dataset_path, generate_dataset
from .synthetic import (
    SyntheticConfig,
    generate_mixed_records,
    generate_point_records,
    generate_polygon_records,
    generate_polyline_records,
    point_wkt,
    polygon_wkt,
    polyline_wkt,
)

__all__ = [
    "SyntheticConfig",
    "generate_polygon_records",
    "generate_polyline_records",
    "generate_point_records",
    "generate_mixed_records",
    "polygon_wkt",
    "polyline_wkt",
    "point_wkt",
    "DatasetSpec",
    "DATASETS",
    "generate_dataset",
    "dataset_path",
    "random_envelopes",
    "write_mbr_file",
    "read_mbr_records",
    "read_mbr_file",
    "validate_record_file",
    "MBR_RECORD_FLOAT32",
    "MBR_RECORD_FLOAT64",
]
