"""Derived datatype and virtual clock tests."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpisim import (
    MPI_BYTE,
    MPI_DOUBLE,
    MPI_FLOAT,
    MPI_INT,
    CommCostModel,
    VirtualClock,
    create_contiguous,
    create_indexed,
    create_struct,
    create_vector,
)
from repro.mpisim.clock import LATENCY


class TestBasicTypes:
    def test_sizes(self):
        assert MPI_BYTE.size == 1
        assert MPI_INT.size == 4
        assert MPI_FLOAT.size == 4
        assert MPI_DOUBLE.size == 8

    def test_contiguity(self):
        assert MPI_DOUBLE.is_contiguous
        assert MPI_DOUBLE.blocks() == [(0, 8)]

    def test_commit_free(self):
        dt = create_contiguous(2, MPI_INT)
        assert dt.Commit() is dt
        dt.Free()
        assert dt.layout(1) == [(0, 8)]


class TestContiguous:
    def test_mpi_rect_style(self):
        """MPI_Rect is 'a contiguous type of 4 doubles' (paper §4.2.1)."""
        rect = create_contiguous(4, MPI_DOUBLE)
        assert rect.size == 32
        assert rect.extent == 32
        assert rect.is_contiguous

    def test_layout_merges_adjacent(self):
        dt = create_contiguous(3, MPI_INT)
        assert dt.layout(2) == [(0, 24)]

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            create_contiguous(0, MPI_INT)


class TestVector:
    def test_column_of_row_major_matrix(self):
        """The paper's example of a non-contiguous area: one column of a 2-D
        array stored in row-major order."""
        ncols = 4
        col = create_vector(count=3, blocklength=1, stride=ncols, oldtype=MPI_INT)
        assert col.size == 12
        assert col.extent == (2 * ncols + 1) * 4
        assert col.blocks() == [(0, 4), (16, 4), (32, 4)]

    def test_pack_unpack_roundtrip(self):
        ncols, nrows = 4, 3
        matrix = list(range(nrows * ncols))
        buffer = struct.pack(f"<{nrows * ncols}i", *matrix)
        col = create_vector(count=nrows, blocklength=1, stride=ncols, oldtype=MPI_INT)
        packed = col.pack(buffer, count=1, offset=1 * 4)  # column index 1
        assert struct.unpack("<3i", packed) == (1, 5, 9)

        target = bytearray(len(buffer))
        col.unpack(packed, 1, target)  # into column index 0
        restored = struct.unpack(f"<{nrows * ncols}i", bytes(target))
        assert restored[0] == 1 and restored[4] == 5 and restored[8] == 9

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            create_vector(2, 4, 2, MPI_INT)


class TestIndexed:
    def test_variable_length_blocks(self):
        """The polygon file-view case: vertex-count + displacement arrays."""
        dt = create_indexed([3, 1, 2], [0, 5, 10], MPI_DOUBLE)
        assert dt.size == 6 * 8
        assert dt.extent == 12 * 8
        assert dt.blocks() == [(0, 24), (40, 8), (80, 16)]

    def test_mismatched_arrays(self):
        with pytest.raises(ValueError):
            create_indexed([1, 2], [0], MPI_DOUBLE)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            create_indexed([1], [-2], MPI_DOUBLE)


class TestStruct:
    def test_mbr_struct(self):
        """Figure 12's MBR record: 4 floats as one struct type."""
        mbr = create_struct([4], [0], [MPI_FLOAT])
        assert mbr.size == 16
        assert mbr.extent == 16
        assert mbr.is_contiguous

    def test_mixed_members_with_padding(self):
        # int at offset 0, double at offset 8 (padded struct)
        dt = create_struct([1, 1], [0, 8], [MPI_INT, MPI_DOUBLE])
        assert dt.size == 12
        assert dt.extent == 16
        assert dt.blocks() == [(0, 4), (8, 8)]

    def test_layout_of_padded_struct_has_gaps(self):
        dt = create_struct([1, 1], [0, 8], [MPI_INT, MPI_DOUBLE])
        layout = dt.layout(2)
        # Element 0 occupies [0,4) and [8,16); element 1 starts at extent 16,
        # so its int block [16,20) coalesces with the preceding double block.
        assert layout == [(0, 4), (8, 12), (24, 8)]
        assert sum(length for _, length in layout) == 2 * dt.size

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            create_struct([], [], [])


class TestDatatypeProperties:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=4, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_vector_size_invariant(self, count, blocklength, stride):
        stride = max(stride, blocklength)
        dt = create_vector(count, blocklength, stride, MPI_DOUBLE)
        assert dt.size == count * blocklength * 8
        assert dt.size <= dt.extent
        total = sum(length for _, length in dt.blocks())
        assert total == dt.size

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_indexed_size_matches_blocklengths(self, blocklengths):
        displacements = []
        pos = 0
        for bl in blocklengths:
            displacements.append(pos)
            pos += bl + 1
        dt = create_indexed(blocklengths, displacements, MPI_INT)
        assert dt.size == sum(blocklengths) * 4


class TestVirtualClock:
    def test_advance_and_breakdown(self):
        c = VirtualClock()
        c.advance(1.0, "io")
        c.advance(0.5, "comm")
        c.advance(-3.0, "io")  # ignored
        assert c.now == pytest.approx(1.5)
        assert c.category("io") == pytest.approx(1.0)

    def test_advance_to_only_moves_forward(self):
        c = VirtualClock()
        c.advance_to(2.0)
        c.advance_to(1.0)
        assert c.now == pytest.approx(2.0)

    def test_compute_context_charges_time(self):
        c = VirtualClock()
        with c.compute("parse"):
            sum(i * i for i in range(200_000))
        assert c.category("parse") > 0



class TestCostModel:
    def test_transfer_time_monotone_in_size(self):
        m = CommCostModel()
        assert m.transfer_time(10) < m.transfer_time(10_000_000)
        assert m.transfer_time(0) == pytest.approx(LATENCY)

    def test_collective_grows_with_ranks(self):
        m = CommCostModel()
        assert m.collective_time(1024, 64) > m.collective_time(1024, 2)
        assert m.collective_time(1024, 1) == 0.0

    def test_alltoall_time(self):
        m = CommCostModel()
        assert m.alltoall_time(1 << 20, 16) > m.transfer_time(1 << 20)
        assert m.alltoall_time(100, 1) == 0.0
