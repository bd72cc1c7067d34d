"""Striping and cost-model tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pfs import (
    ClusterConfig,
    IOCostModel,
    ReadRequest,
    StripeLayout,
    romio_lustre_readers,
)


class TestStripeLayout:
    def test_stripe_chunks_split_at_boundaries(self):
        layout = StripeLayout(stripe_size=100, stripe_count=2)
        chunks = list(layout.stripe_chunks(50, 200))
        assert chunks == [(0, 50, 50), (1, 100, 100), (0, 200, 50)]

    def test_stripe_chunks_zero_bytes(self):
        layout = StripeLayout(stripe_size=100, stripe_count=2)
        assert list(layout.stripe_chunks(0, 0)) == []

    def test_ost_loads_aggregation(self):
        layout = StripeLayout(stripe_size=100, stripe_count=2)
        loads = layout.ost_loads([(0, 100), (100, 100), (200, 50)])
        assert loads[0].nbytes == 150 and loads[0].requests == 2
        assert loads[1].nbytes == 100 and loads[1].requests == 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StripeLayout(0, 4)
        with pytest.raises(ValueError):
            StripeLayout(100, 0)

    @given(
        st.integers(min_value=1, max_value=1 << 20),
        st.integers(min_value=1, max_value=96),
        st.integers(min_value=0, max_value=1 << 24),
        st.integers(min_value=1, max_value=1 << 22),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunks_cover_range_exactly(self, stripe_size, stripe_count, offset, nbytes):
        layout = StripeLayout(stripe_size, stripe_count)
        chunks = list(layout.stripe_chunks(offset, nbytes))
        assert sum(c for _, _, c in chunks) == nbytes
        # chunks are contiguous and in order
        pos = offset
        for _, off, length in chunks:
            assert off == pos
            pos += length


class TestClusterConfig:
    def test_node_mapping(self):
        c = ClusterConfig(procs_per_node=16)
        assert c.node_of_rank(0) == 0
        assert c.node_of_rank(15) == 0
        assert c.node_of_rank(16) == 1
        assert c.num_nodes(64) == 4
        assert c.num_nodes(65) == 5
        assert c.num_nodes(1) == 1


class TestIOCostModel:
    def make_requests(self, nranks, block, stripe_size):
        return [
            ReadRequest(rank=r, ranges=((r * block, block),))
            for r in range(nranks)
        ]

    def test_more_osts_is_faster(self):
        model = IOCostModel()
        block = 32 << 20
        reqs = self.make_requests(16, block, 32 << 20)
        slow = model.parallel_read_time(StripeLayout(32 << 20, 2), reqs)
        fast = model.parallel_read_time(StripeLayout(32 << 20, 64), reqs)
        assert fast < slow

    def test_scaling_with_readers_saturates(self):
        """Bandwidth grows with reader count then flattens (Figure 8 shape)."""
        model = IOCostModel()
        layout = StripeLayout(64 << 20, 64)
        total = 4 << 30

        def bandwidth(nranks):
            block = total // nranks
            reqs = self.make_requests(nranks, block, 64 << 20)
            t = model.parallel_read_time(layout, reqs)
            return total / t

        bw_small = bandwidth(4)
        bw_mid = bandwidth(64)
        bw_large = bandwidth(512)
        assert bw_mid > bw_small
        # saturation: going from 64 to 512 readers must not keep scaling linearly
        assert bw_large < bw_mid * 4

    def test_empty_requests(self):
        model = IOCostModel()
        assert model.parallel_read_time(StripeLayout(1024, 2), []) == 0.0

    def test_redistribution_time(self):
        model = IOCostModel()
        assert model.redistribution_time(0, 8) == 0.0
        assert model.redistribution_time(1 << 30, 1) == 0.0
        assert model.redistribution_time(1 << 30, 64) > 0


class TestRomioAggregatorRule:
    def test_multiple_of_nodes_uses_all_nodes(self):
        # 64 OSTs with 16, 32, 64 nodes -> readers == nodes (Figure 11 fast cases)
        assert romio_lustre_readers(16, 64) == 16
        assert romio_lustre_readers(32, 64) == 32
        assert romio_lustre_readers(64, 64) == 64

    def test_non_divisor_falls_back(self):
        # the paper's footnotes: 24 nodes on 64 OSTs -> 16 readers; 48 -> 32
        assert romio_lustre_readers(24, 64) == 16
        assert romio_lustre_readers(48, 64) == 32

    def test_more_nodes_than_osts(self):
        assert romio_lustre_readers(72, 64) == 64
        assert romio_lustre_readers(96, 96) == 96

    def test_small_cases(self):
        assert romio_lustre_readers(1, 96) == 1
        assert romio_lustre_readers(3, 2) == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            romio_lustre_readers(0, 4)
        with pytest.raises(ValueError):
            romio_lustre_readers(4, 0)

    @given(st.integers(min_value=1, max_value=128), st.integers(min_value=1, max_value=96))
    def test_reader_count_bounds(self, nodes, stripes):
        readers = romio_lustre_readers(nodes, stripes)
        assert 1 <= readers <= nodes
        assert readers <= max(stripes, 1) or readers == nodes


class TestCostModelEdgeCases:
    """Edge cases the store's I/O scheduler now leans on (PR 4): the cost
    model must stay well-defined for zero-byte requests, a single OST, and
    aggregator sets larger than the request set, and `ReadRequest.nbytes`
    must agree with the coalesced runs the store emits."""

    def test_zero_byte_request_is_cheap_and_finite(self):
        model = IOCostModel()
        layout = StripeLayout(1 << 20, 4)
        t = model.parallel_read_time(layout, [ReadRequest(0, ((0, 0),))])
        assert 0.0 <= t < 1e-3  # no OST touched; latency-only terms
        # an empty range tuple behaves the same
        t2 = model.parallel_read_time(layout, [ReadRequest(0, ())])
        assert 0.0 <= t2 < 1e-3

    def test_zero_byte_request_properties(self):
        req = ReadRequest(3, ((128, 0),))
        assert req.nbytes == 0
        assert req.num_requests == 1
        assert ReadRequest(0, ()).nbytes == 0

    def test_single_ost_serialises_all_bytes(self):
        model = IOCostModel()
        one = StripeLayout(1 << 20, 1)
        many = StripeLayout(1 << 20, 32)
        reqs = [ReadRequest(r, ((r * (8 << 20), 8 << 20),)) for r in range(8)]
        assert model.parallel_read_time(one, reqs) > model.parallel_read_time(many, reqs)
        # with one OST every chunk lands on OST 0 regardless of offset
        loads = one.ost_loads([(0, 4 << 20), (64 << 20, 4 << 20)])
        assert set(loads) == {0}
        assert loads[0].nbytes == 8 << 20

    def test_redistribution_with_excess_aggregators(self):
        model = IOCostModel()
        nranks = 32
        nodes = model.cluster.num_nodes(nranks)
        # more aggregators than nodes clamps to the node count
        assert model.redistribution_time(1 << 30, nranks, num_aggregators=10_000) == \
            model.redistribution_time(1 << 30, nranks, num_aggregators=nodes)

    def test_readrequest_nbytes_matches_store_schedules(self, tmp_path):
        # end to end: every ReadRequest the serving path emits must report
        # nbytes equal to the sum of its coalesced ranges, and the store's
        # bytes_read must equal the bytes those requests claim
        from repro.datasets import SyntheticConfig, generate_dataset, random_envelopes
        from repro.core.reader import VectorIO
        from repro.pfs import LustreFilesystem
        from repro.store import SpatialDataStore, bulk_load

        fs = LustreFilesystem(tmp_path / "pfs", ost_count=4)
        path = generate_dataset(fs, "lakes", scale=0.1,
                                config=SyntheticConfig(seed=8))
        geoms = VectorIO(fs).sequential_read(path).geometries
        bulk_load(fs, "edge_lakes", geoms, num_partitions=8, page_size=1024)

        store = SpatialDataStore.open(fs, "edge_lakes", cache_pages=256)
        captured = []
        real_read_time = fs.read_time

        def spy(p, requests):
            captured.extend(requests)
            return real_read_time(p, requests)

        fs.read_time = spy
        try:
            before = store.stats.bytes_read
            for env in random_envelopes(6, extent=store.extent,
                                        max_size_fraction=0.3, seed=12):
                store.range_query(env, exact=False)
            delta = store.stats.bytes_read - before
        finally:
            fs.read_time = real_read_time

        assert captured
        for req in captured:
            assert req.nbytes == sum(n for _, n in req.ranges)
            assert req.num_requests == len(req.ranges)
        assert delta == sum(req.nbytes for req in captured)
