"""The async multiplexing front-end (`repro.store.frontend`).

Correctness first: whatever the in-flight window, the pipelined path must
return exactly the hits the retired collective scatter/gather loop
(``_collective_serve_reference``) returns, per batch and in batch order —
and so must a join, one batch through the same loop.  Then the virtual-clock metrics: per-batch latencies are
well-formed, the makespan covers every completion, and a pipelined window
overlaps consecutive batches where the no-overlap baseline
(``max_in_flight=1``, the same transport) never does.
"""

import pytest

from repro import mpisim
from repro.geometry import Polygon
from repro.core.reader import VectorIO
from repro.datasets import SyntheticConfig, generate_dataset, random_envelopes
from repro.pfs import LustreFilesystem
from repro.store import AsyncStoreFrontend, DistributedStoreServer, bulk_load

import _collective_serve_reference as oracle  # the retired scatter/gather loop, kept next to this file


@pytest.fixture(scope="module")
def fs(tmp_path_factory):
    return LustreFilesystem(tmp_path_factory.mktemp("frontendfs"), ost_count=8)


@pytest.fixture(scope="module")
def sharded_name(fs):
    path = generate_dataset(fs, "lakes", scale=0.25, config=SyntheticConfig(seed=99))
    geometries = VectorIO(fs).sequential_read(path).geometries
    bulk_load(fs, "frontend_lakes", geometries, num_shards=4,
              num_partitions=16)
    return "frontend_lakes"


def make_batches(extent, num_batches=8, per_batch=5, seed=17):
    envs = list(
        random_envelopes(num_batches * per_batch, extent=extent,
                         max_size_fraction=0.12, seed=seed)
    )
    return [
        [(f"b{b}.q{i}", env) for i, env in enumerate(envs[b * per_batch:(b + 1) * per_batch])]
        for b in range(num_batches)
    ]


def keys(hits):
    return [(h.query_id, h.record_id) for h in hits]


class TestFrontendCorrectness:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    @pytest.mark.parametrize("window", [1, 4, 16])
    def test_async_equals_collective_batches(self, fs, sharded_name, nprocs, window):
        def prog(comm):
            with DistributedStoreServer.open(comm, fs, sharded_name) as server:
                batches = make_batches(server.manifest.extent)
                frontend = AsyncStoreFrontend(server, max_in_flight=window)
                result = frontend.serve(batches if comm.rank == 0 else None)
                reference = [
                    oracle.range_query_batch(server, batch if comm.rank == 0 else None)
                    for batch in batches
                ]
                return result, reference

        result, reference = mpisim.run_spmd(prog, nprocs).values[0]
        assert result.num_batches == len(reference)
        for got, want in zip(result.batches, reference):
            assert keys(got) == keys(want)

    def test_sequential_path_equals_async(self, fs, sharded_name):
        # sequential submission three times over: the no-overlap window
        # (W=1, the same transport), one range_query_batch per batch, and
        # the oracle, one scatter/gather collective per batch
        def prog(comm):
            with DistributedStoreServer.open(comm, fs, sharded_name) as server:
                batches = make_batches(server.manifest.extent)
                root_batches = batches if comm.rank == 0 else None
                served = [
                    AsyncStoreFrontend(server, max_in_flight=window).serve(root_batches)
                    for window in (1, 4)
                ]
                single = [
                    server.range_query_batch(batch if comm.rank == 0 else None)
                    for batch in batches
                ]
                reference = [
                    oracle.range_query_batch(server, batch if comm.rank == 0 else None)
                    for batch in batches
                ]
                return served, single, reference

        (one, four), single, reference = mpisim.run_spmd(prog, 4).values[0]
        want = [keys(b) for b in reference]
        assert [keys(b) for b in one.batches] == want
        assert [keys(b) for b in four.batches] == want
        assert [keys(b) for b in single] == want

    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_join_equals_collective_join(self, fs, sharded_name, nprocs):
        def prog(comm):
            with DistributedStoreServer.open(comm, fs, sharded_name) as server:
                probes = [
                    Polygon.from_envelope(env, userdata=qid)
                    for batch in make_batches(server.manifest.extent, num_batches=4)
                    for qid, env in batch
                ]
                root_probes = probes if comm.rank == 0 else None
                return server.join(root_probes), oracle.join(server, root_probes)

        got, want = mpisim.run_spmd(prog, nprocs).values[0]

        def pairs(result):
            return [(probe.userdata, hit.record_id, hit.shard_id, hit.page_id) for probe, hit in result]

        assert pairs(got) == pairs(want) and got

    def test_empty_batches_and_windows(self, fs, sharded_name):
        def prog(comm):
            with DistributedStoreServer.open(comm, fs, sharded_name) as server:
                frontend = AsyncStoreFrontend(server, max_in_flight=4)
                empty = frontend.serve([] if comm.rank == 0 else None)
                from repro.geometry import Envelope

                degenerate = [[(0, Envelope.empty())], []]
                degen = frontend.serve(degenerate if comm.rank == 0 else None)
                return empty, degen

        empty, degen = mpisim.run_spmd(prog, 2).values[0]
        assert empty.num_batches == 0
        assert empty.makespan >= 0.0
        assert [keys(b) for b in degen.batches] == [[], []]

    def test_non_root_gets_none(self, fs, sharded_name):
        def prog(comm):
            with DistributedStoreServer.open(comm, fs, sharded_name) as server:
                frontend = AsyncStoreFrontend(server, max_in_flight=2)
                batches = make_batches(server.manifest.extent, num_batches=3)
                return frontend.serve(batches if comm.rank == 0 else None)

        values = mpisim.run_spmd(prog, 3).values
        assert values[0] is not None
        assert values[1] is None and values[2] is None

    def test_invalid_window_rejected(self, fs, sharded_name):
        def prog(comm):
            with DistributedStoreServer.open(comm, fs, sharded_name) as server:
                # the window is a fixed positive integer, nothing else
                for bad in (0, "adaptive", 2.5):
                    with pytest.raises(ValueError):
                        AsyncStoreFrontend(server, max_in_flight=bad)
                return True

        assert mpisim.run_spmd(prog, 1).values[0]


class TestFrontendMetrics:
    def _serve(self, fs, sharded_name, window, nprocs=4, num_batches=8):
        def prog(comm):
            with DistributedStoreServer.open(comm, fs, sharded_name) as server:
                batches = make_batches(server.manifest.extent, num_batches=num_batches)
                frontend = AsyncStoreFrontend(server, max_in_flight=window)
                return frontend.serve(batches if comm.rank == 0 else None)

        return mpisim.run_spmd(prog, nprocs).values[0]

    def test_latencies_and_makespan_well_formed(self, fs, sharded_name):
        result = self._serve(fs, sharded_name, window=4)
        assert len(result.metrics) == result.num_batches
        for m in result.metrics:
            assert m.completed >= m.submitted
            assert m.latency >= 0.0
        assert result.makespan >= max(m.completed for m in result.metrics) - min(
            m.submitted for m in result.metrics
        ) - 1e-12
        summary = result.summary()
        assert summary["num_batches"] == result.num_batches
        assert summary["queries_per_second"] > 0

    def test_async_serving_feeds_the_server_phase_breakdown(self, fs, sharded_name):
        # regression: the front-end must accumulate into server.phases like
        # the collective path, so phase_breakdown() covers async traffic
        def prog(comm):
            with DistributedStoreServer.open(comm, fs, sharded_name) as server:
                batches = make_batches(server.manifest.extent, num_batches=6)
                frontend = AsyncStoreFrontend(server, max_in_flight=3)
                result = frontend.serve(batches if comm.rank == 0 else None)
                return server.phase_breakdown(), result

        phases, result = mpisim.run_spmd(prog, 4).values[0]
        assert result.total_queries == 6 * 5
        for name in ("route", "local_query", "gather"):
            assert phases[name] > 0.0

    def test_pipelined_throughput_not_below_sequential(self, fs, sharded_name):
        # fresh server per window: cold page caches on both sides
        seq = self._serve(fs, sharded_name, window=1)
        asy = self._serve(fs, sharded_name, window=4)
        assert asy.total_queries == seq.total_queries

        # Both throughputs are measured-CPU virtual seconds of two separate
        # runs, so `asy >= seq` with no margin is a coin toss whenever the
        # overlap is small.  What the inequality stands for is structural,
        # on one run's own clock: the pipeline submits a batch while its
        # predecessor is still in flight, a window of one never does.
        def overlaps(result):
            ordered = sorted(result.metrics, key=lambda m: m.batch_id)
            return sum(b.submitted < a.completed for a, b in zip(ordered, ordered[1:]))

        assert overlaps(seq) == 0
        assert overlaps(asy) > 0

    def test_fixed_window_reports_flat_trajectory(self, fs, sharded_name):
        result = self._serve(fs, sharded_name, window=4)
        assert result.windows == [4] * result.num_batches
        assert result.max_in_flight == 4
