"""Grid partitioning, geometry exchange and non-contiguous access tests."""

import pickle
import struct

import pytest

from repro import mpisim
from repro.core import (
    GridPartitionConfig,
    MPI_RECT,
    RecordIndex,
    assign_to_cells,
    build_record_index,
    compute_global_extent,
    deserialise_cell_group,
    exchange_cells,
    partition_geometries,
    read_fixed_records_roundrobin,
    read_variable_records_roundrobin,
    serialise_cell_group,
)
from repro.datasets import random_envelopes, write_mbr_file
from repro.geometry import Envelope, Point, Polygon, wkb
from repro.index import UniformGrid, round_robin_mapping
from repro.mpisim import ops
from repro.pfs import LustreFilesystem


@pytest.fixture
def lustre(tmp_path):
    return LustreFilesystem(tmp_path / "lustre")


class TestGlobalExtent:
    def test_union_across_ranks(self):
        def prog(comm):
            geoms = [Point(comm.rank * 10.0, 5.0), Point(comm.rank * 10.0 + 2.0, 7.0)]
            return compute_global_extent(comm, geoms)

        res = mpisim.run_spmd(prog, 4)
        assert all(env == Envelope(0, 5, 32, 7) for env in res.values)

    def test_empty_everywhere(self):
        def prog(comm):
            return compute_global_extent(comm, [])

        res = mpisim.run_spmd(prog, 3)
        assert all(env.is_empty for env in res.values)


class TestCellAssignment:
    def test_replication_to_overlapping_cells(self):
        grid = UniformGrid(Envelope(0, 0, 100, 100), 4, 4)
        small = Polygon.box(1, 1, 2, 2, userdata="small")
        spanning = Polygon.box(20, 20, 30, 30, userdata="spanning")
        cells = assign_to_cells(grid, [small, spanning])
        assert [g.userdata for g in cells[0]] == ["small", "spanning"]
        # the spanning polygon overlaps cells 0, 1, 4, 5
        for cid in (1, 4, 5):
            assert [g.userdata for g in cells[cid]] == ["spanning"]

    def test_rtree_and_grid_agree(self):
        grid = UniformGrid(Envelope(0, 0, 100, 100), 8, 8)
        geoms = [Polygon.box(i * 3.0, i * 2.0, i * 3.0 + 5.0, i * 2.0 + 4.0) for i in range(20)]
        via_tree = assign_to_cells(grid, geoms)
        expected = {}
        for g in geoms:
            for cid in grid.cells_for_envelope(g.envelope):
                expected.setdefault(cid, []).append(g)
        assert {k: len(v) for k, v in via_tree.items()} == {k: len(v) for k, v in expected.items()}


class TestSerialisation:
    def test_roundtrip_with_userdata(self):
        cells = {
            3: [Polygon.box(0, 0, 1, 1, userdata={"id": 7}), Point(2, 2)],
            9: [Point(5, 5, userdata="label")],
        }
        data = serialise_cell_group(cells)
        out = deserialise_cell_group(data)
        assert sorted(out) == [3, 9]
        assert out[3][0].userdata == {"id": 7}
        assert out[3][1].wkt() == "POINT (2 2)"
        assert out[9][0].userdata == "label"

    def test_empty(self):
        assert serialise_cell_group({}) == b""
        assert deserialise_cell_group(b"") == {}

    # One record: 12-byte prefix, 21-byte WKB point, pickled userdata.  The
    # second record starts at offset 33 + len(userdata).
    @pytest.mark.parametrize(
        "cut, offset",
        [
            (5, 0),      # inside the first prefix (was a raw struct.error)
            (12, 0),     # prefix intact, body missing
            (20, 0),     # inside the WKB body (was sliced short)
            (35, 0),     # inside the userdata (was handed to pickle short)
            (-30, None),  # inside the second record's prefix
            (-3, None),   # inside the second record's userdata
        ],
    )
    def test_truncated_buffer_raises_valueerror_naming_the_offset(self, cut, offset):
        g = Point(1.0, 2.0, userdata="some label")
        data = serialise_cell_group({3: [g, g]})
        second = len(data) // 2
        with pytest.raises(ValueError, match="truncated cell group") as err:
            deserialise_cell_group(data[:cut])
        assert f"offset {second if offset is None else offset}" in str(err.value)

    def test_overlong_declared_lengths_rejected(self):
        data = bytearray(serialise_cell_group({3: [Point(1.0, 2.0)]}))
        struct.pack_into("<I", data, 4, 10_000)  # body_len overruns the buffer
        with pytest.raises(ValueError, match="offset 0 declares 10000 body"):
            deserialise_cell_group(bytes(data))
        data = bytearray(serialise_cell_group({3: [Point(1.0, 2.0)]}))
        struct.pack_into("<I", data, 8, 7)  # ud_len with no bytes behind it
        with pytest.raises(ValueError, match=r"\+ 7 userdata bytes, 21 remain"):
            deserialise_cell_group(bytes(data))


    @pytest.mark.parametrize(
        "geom", [Point(1.0, 2.0), Polygon.box(0, 0, 1, 1)], ids=lambda g: g.geom_type
    )
    def test_bytes_after_the_wkb_inside_a_record_raise(self, geom):
        # regression: body_len larger than the WKB was accepted and the
        # surplus ignored
        body = wkb.dumps(geom)
        first = serialise_cell_group({3: [Point(9.0, 9.0)]})
        record = struct.pack("<III", 3, len(body) + 4, 0) + body + b"junk"
        with pytest.raises(ValueError, match="4 surplus bytes") as err:
            deserialise_cell_group(first + record)
        assert f"record at offset {len(first)}" in str(err.value)
        # the same record with an honest length decodes
        honest = struct.pack("<III", 3, len(body), 0) + body
        assert len(deserialise_cell_group(first + honest)[3]) == 2

    @pytest.mark.parametrize("userdata", [b"junk", b"\x80\x04\x95", pickle.dumps("x")[:-1]])
    def test_undecodable_userdata_raises_valueerror_naming_the_offset(self, userdata):
        # regression: the unpickler's own exception (UnpicklingError,
        # EOFError, ...) escaped the reader of the framing
        body = wkb.dumps(Point(1.0, 2.0))
        first = serialise_cell_group({3: [Point(9.0, 9.0)]})
        record = struct.pack("<III", 3, len(body), len(userdata)) + body + userdata
        with pytest.raises(ValueError, match="do not unpickle") as err:
            deserialise_cell_group(first + record)
        assert f"malformed cell group: record at offset {len(first)}" in str(err.value)


class TestExchange:
    def test_geometries_land_on_owning_rank(self):
        def prog(comm):
            # every rank creates one point per cell; after the exchange each
            # rank must own exactly the cells mapped to it, with one point per
            # source rank in each.
            num_cells = 8
            mapping = round_robin_mapping(num_cells, comm.size)
            local = {
                cid: [Point(float(cid), float(comm.rank), userdata=f"r{comm.rank}c{cid}")]
                for cid in range(num_cells)
            }
            owned = exchange_cells(comm, local, mapping)
            return {cid: sorted(p.userdata for p in pts) for cid, pts in owned.items()}

        res = mpisim.run_spmd(prog, 4)
        for rank, owned in enumerate(res.values):
            expected_cells = [cid for cid in range(8) if cid % 4 == rank]
            assert sorted(owned) == expected_cells
            for cid, labels in owned.items():
                assert labels == sorted(f"r{r}c{cid}" for r in range(4))

    def test_sliding_window_equivalence(self):
        def prog(comm, window):
            num_cells = 12
            mapping = round_robin_mapping(num_cells, comm.size)
            local = {cid: [Point(cid, comm.rank)] for cid in range(num_cells)}
            owned = exchange_cells(comm, local, mapping, window=window)
            return {cid: len(pts) for cid, pts in owned.items()}

        single = mpisim.run_spmd(prog, 3, None).values
        windowed = mpisim.run_spmd(prog, 3, 4).values
        assert single == windowed

    def test_missing_mapping_raises(self):
        def prog(comm):
            exchange_cells(comm, {99: [Point(0, 0)]}, {0: 0})

        with pytest.raises(KeyError):
            mpisim.run_spmd(prog, 2)

    def test_partition_geometries_end_to_end(self):
        def prog(comm):
            # rank r contributes points clustered in its own x band
            geoms = [
                Point(comm.rank * 10.0 + i * 0.1, 1.0 + i * 0.0371) for i in range(20)
            ]
            part = partition_geometries(comm, geoms, GridPartitionConfig(num_cells=16))
            total = comm.allreduce(sum(map(len, part.cells.values())), ops.SUM)
            return total, sorted(part.cells)

        res = mpisim.run_spmd(prog, 4)
        total, _ = res.values[0]
        # every point lands in at least one cell; a handful may sit exactly on
        # a cell boundary and be replicated to both neighbours
        assert 80 <= total <= 88
        # owned cells are disjoint across ranks
        all_cells = [c for _, cells in res.values for c in cells]
        assert len(all_cells) == len(set(all_cells))


class TestNonContiguousAccess:
    def test_fixed_records_roundrobin(self, lustre):
        envs = random_envelopes(64, seed=11)
        write_mbr_file(lustre, "mbrs64.bin", envs, precision="float64")

        def prog(comm):
            data = read_fixed_records_roundrobin(comm, lustre, "mbrs64.bin", MPI_RECT, records_per_block=4)
            return [struct.unpack_from("<4d", data, i) for i in range(0, len(data), 32)]

        res = mpisim.run_spmd(prog, 4)
        # reassemble: block b belongs to rank b % nprocs
        recovered = []
        cursors = [0] * 4
        for b in range(16):
            rank = b % 4
            chunk = res.values[rank][cursors[rank] : cursors[rank] + 4]
            cursors[rank] += 4
            recovered.extend(chunk)
        assert [Envelope(*r) for r in recovered] == envs

    def test_fixed_records_uneven_counts(self, lustre):
        envs = random_envelopes(10, seed=3)
        write_mbr_file(lustre, "mbrs10.bin", envs, precision="float64")

        def prog(comm):
            data = read_fixed_records_roundrobin(comm, lustre, "mbrs10.bin", MPI_RECT, records_per_block=3)
            return len(data) // 32

        res = mpisim.run_spmd(prog, 3)
        assert sum(res.values) == 10

    def test_build_record_index(self, lustre):
        records = [b"alpha", b"bb", b"cccc", b"dd"]
        lustre.create_file("idx.txt", b"\n".join(records) + b"\n")
        index = build_record_index(lustre, "idx.txt")
        assert index.num_records == 4
        assert index.lengths == [5, 2, 4, 2]
        assert index.offsets == [0, 6, 9, 14]

    def test_record_index_no_trailing_newline(self, lustre):
        lustre.create_file("idx2.txt", b"aa\nbbb")
        index = build_record_index(lustre, "idx2.txt")
        assert index.lengths == [2, 3]

    def test_variable_records_roundrobin(self, lustre):
        from repro.datasets import generate_polygon_records

        records = [r.encode() for r in generate_polygon_records(40)]
        lustre.create_file("polys.wkt", b"\n".join(records) + b"\n")
        index = build_record_index(lustre, "polys.wkt")

        def prog(comm):
            mine = read_variable_records_roundrobin(comm, lustre, "polys.wkt", index, records_per_block=2)
            return mine

        res = mpisim.run_spmd(prog, 4)
        recovered = [r for out in res.values for r in out]
        assert sorted(recovered) == sorted(records)

    def test_record_index_validation(self):
        with pytest.raises(ValueError):
            RecordIndex([0, 5], [3])

    def test_invalid_block_sizes(self, lustre):
        lustre.create_file("f.bin", b"\x00" * 64)

        def prog(comm):
            read_fixed_records_roundrobin(comm, lustre, "f.bin", MPI_RECT, records_per_block=0)

        with pytest.raises(ValueError):
            mpisim.run_spmd(prog, 1)
