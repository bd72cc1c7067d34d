"""Synthetic dataset generator tests."""

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WKTParser
from repro.datasets import (
    DATASETS,
    SyntheticConfig,
    dataset_path,
    generate_dataset,
    generate_mixed_records,
    generate_point_records,
    generate_polygon_records,
    generate_polyline_records,
    random_envelopes,
    read_mbr_records,
    write_mbr_file,
)
from repro.geometry import Envelope, LineString, Point, Polygon, wkt
from repro.pfs import LustreFilesystem


@pytest.fixture
def lustre(tmp_path):
    return LustreFilesystem(tmp_path / "fs")


class TestRecordGenerators:
    def test_polygon_records_parse(self):
        parser = WKTParser()
        records = list(generate_polygon_records(50))
        geoms = parser.parse_many(records)
        assert len(geoms) == 50
        assert all(isinstance(g, Polygon) for g in geoms)
        assert all(g.area > 0 for g in geoms)
        # attributes preserved as userdata
        assert all(g.userdata and "id=" in g.userdata for g in geoms)

    def test_polyline_records_parse(self):
        geoms = WKTParser().parse_many(generate_polyline_records(30))
        assert len(geoms) == 30
        assert all(isinstance(g, LineString) for g in geoms)

    def test_point_records_parse(self):
        geoms = WKTParser().parse_many(generate_point_records(30))
        assert all(isinstance(g, Point) for g in geoms)

    def test_mixed_records_contain_multiple_types(self):
        geoms = WKTParser().parse_many(generate_mixed_records(120))
        types = {g.geom_type for g in geoms}
        assert {"Polygon", "LineString", "Point"} <= types

    def test_determinism_with_seed(self):
        cfg = SyntheticConfig(seed=77)
        a = list(generate_polygon_records(20, cfg))
        b = list(generate_polygon_records(20, SyntheticConfig(seed=77)))
        c = list(generate_polygon_records(20, SyntheticConfig(seed=78)))
        assert a == b
        assert a != c

    def test_vertex_count_skew(self):
        cfg = SyntheticConfig(seed=3)
        geoms = WKTParser().parse_many(generate_polygon_records(300, cfg))
        counts = sorted(g.num_points for g in geoms)
        # heavy-tailed: the largest polygon has far more vertices than the median
        assert counts[-1] > counts[len(counts) // 2] * 4

    def test_records_within_extent(self):
        cfg = SyntheticConfig(seed=5)
        extent = cfg.extent.buffer(5.0)  # generators may jitter slightly past the edge
        for record in generate_point_records(100, cfg):
            g = wkt.loads(record.split("\t")[0])
            assert extent.contains(g.envelope)

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=10, deadline=None)
    def test_record_count_property(self, n):
        assert len(list(generate_polygon_records(n))) == n
        assert len(list(generate_point_records(n))) == n


class TestNamedDatasets:
    def test_registry_matches_table3(self):
        assert DATASETS["cemetery"].paper_size == "56 MB"
        assert DATASETS["road_network"].shape == "line"
        assert DATASETS["all_nodes"].base_count > DATASETS["cemetery"].base_count

    def test_generate_dataset_and_parse(self, lustre):
        path = generate_dataset(lustre, "cemetery", scale=0.1)
        assert path == dataset_path("cemetery")
        with lustre.open(path) as fh:
            data = fh.pread(0, fh.size)
        geoms = WKTParser().parse_buffer(data)
        assert len(geoms) == 40

    def test_generate_dataset_custom_path(self, lustre):
        path = generate_dataset(lustre, "lakes", scale=0.02, path="custom/lakes_small.wkt")
        assert lustre.exists("custom/lakes_small.wkt")
        assert path == "custom/lakes_small.wkt"

    def test_unknown_dataset(self, lustre):
        with pytest.raises(KeyError):
            generate_dataset(lustre, "oceans")

    def test_minimum_count(self, lustre):
        path = generate_dataset(lustre, "cemetery", scale=0.0001)
        geoms = WKTParser().parse_buffer(lustre.open(path).pread(0, 10**7))
        assert len(geoms) == 10

    def test_named_dataset_identical_across_hash_seeds(self, tmp_path):
        # regression: the default seed was hash(name), which is salted per
        # process — every un-configured generate_dataset call site got
        # different data on every run
        script = (
            "import hashlib, sys\n"
            "from repro.datasets import generate_dataset\n"
            "from repro.pfs import LustreFilesystem\n"
            "fs = LustreFilesystem(sys.argv[1])\n"
            "path = generate_dataset(fs, 'cemetery', scale=0.2)\n"
            "with fs.open(path) as fh:\n"
            "    print(hashlib.sha256(fh.pread(0, fh.size)).hexdigest())\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        digests = []
        for hash_seed in ("1", "2"):
            env = {
                **os.environ,
                "PYTHONHASHSEED": hash_seed,
                "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""),
            }
            run = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / f"fs{hash_seed}")],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout.strip())
        assert digests[0] and digests[0] == digests[1]


class TestBinaryDatasets:
    def test_mbr_roundtrip_float32(self, lustre):
        envs = random_envelopes(25, seed=1)
        n = write_mbr_file(lustre, "m.bin", envs, precision="float32")
        assert n == 25
        data = lustre.open("m.bin").pread(0, 10**6)
        out = read_mbr_records(data, precision="float32")
        assert len(out) == 25
        for a, b in zip(envs, out):
            assert a.minx == pytest.approx(b.minx, rel=1e-6)

    def test_mbr_roundtrip_float64(self, lustre):
        envs = random_envelopes(10, seed=2)
        write_mbr_file(lustre, "m64.bin", envs, precision="float64")
        out = read_mbr_records(lustre.open("m64.bin").pread(0, 10**6), precision="float64")
        assert out == envs

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            read_mbr_records(b"\x00" * 10)

    def test_random_envelopes_within_extent(self):
        extent = Envelope(0, 0, 10, 10)
        for env in random_envelopes(50, extent=extent, seed=9):
            assert extent.contains(env)
