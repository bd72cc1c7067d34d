"""The paper pipeline hands the PFS cost model the same cluster as before.

``File._view_blocks`` feeds ``ReadRequest.ranges``; a view expansion that
split or merged blocks differently would silently change every simulated I/O
second.  One 4-rank ``SpatialJoin.run`` per access level, with spies on the
two places block lists enter a cost model, pins them — and the virtual-clock
I/O they produce — to values computed by hand from Algorithm 1's offsets.
"""

import math

import pytest

import repro.io.file as io_file
from repro import mpisim
from repro.core import GridPartitionConfig, MessagePartitioner, PartitionConfig, SpatialJoin
from repro.pfs import ReadRequest, SimulatedFilesystem

NPROCS = 4
BLOCK = 8 * 1024


def one_block(rank, offset, nbytes):
    """The request a rank must present for a default-view block read."""
    return ReadRequest(rank=rank, ranges=((offset, nbytes),) if nbytes else ())


def block_plan(file_size):
    """Algorithm 1: ``(offset, nbytes)`` per rank, per iteration."""
    chunk = BLOCK * NPROCS
    return [
        [
            (it * chunk + rank * BLOCK, max(0, min(BLOCK, file_size - it * chunk - rank * BLOCK)))
            for rank in range(NPROCS)
        ]
        for it in range(max(1, math.ceil(file_size / chunk)))
    ]


@pytest.mark.parametrize("level", [0, 1])
def test_join_presents_single_block_requests_and_exact_io_clock(small_datasets, monkeypatch, level):
    fs = small_datasets["fs"]
    paths = [small_datasets["lakes"], small_datasets["cemetery"]]

    independent, collective, partitions = [], [], []
    real_read_time = SimulatedFilesystem.read_time
    real_collective = io_file.collective_read_time
    real_partition_read = MessagePartitioner.read

    def spy_read_time(self, path, requests):
        independent.append((path, tuple(requests)))
        return real_read_time(self, path, requests)

    def spy_collective(fs_, path, requests, info=None):
        collective.append((path, tuple(requests)))
        return real_collective(fs_, path, requests, info)

    def spy_partition_read(self, comm, fs_, path):
        result = real_partition_read(self, comm, fs_, path)
        partitions.append((comm.rank, path, result))
        return result

    monkeypatch.setattr(SimulatedFilesystem, "read_time", spy_read_time)
    monkeypatch.setattr(io_file, "collective_read_time", spy_collective)
    monkeypatch.setattr(MessagePartitioner, "read", spy_partition_read)

    join = SpatialJoin(
        fs,
        partition_config=PartitionConfig(block_size=BLOCK, level=level),
        grid_config=GridPartitionConfig(num_cells=16),
    )

    def prog(comm):
        join.run(comm, *paths)
        return comm.clock.category("io")

    io_clock = mpisim.run_spmd(prog, NPROCS).values

    expected_calls = []
    expected_io = [0.0] * NPROCS
    for path in paths:
        with fs.open(path) as fh:
            data = fh.pread(0, fh.size)
        plan = block_plan(len(data))
        assert len(plan) > 1, "the case must iterate to be worth pinning"
        for rank in range(NPROCS):
            expected_io[rank] += fs.open_time()
        for blocks in plan:
            if level == 1:
                requests = tuple(one_block(r, off, n) for r, (off, n) in enumerate(blocks))
                seconds, _ = real_collective(fs, path, requests, None)
                expected_calls += [(path, requests)] * NPROCS
                for rank in range(NPROCS):
                    expected_io[rank] += seconds
                continue
            for rank, (off, n) in enumerate(blocks):
                # Level 0 models its peers as same-sized reads at block-cyclic offsets
                requests = tuple(
                    one_block(peer, max(0, off + (peer - rank) * n), n) for peer in range(NPROCS)
                )
                expected_calls.append((path, requests))
                expected_io[rank] += real_read_time(fs, path, list(requests))

        for rank in range(NPROCS):
            (result,) = [res for r, p, res in partitions if (r, p) == (rank, path)]
            mine = [data[off : off + n] for off, n in (blocks[rank] for blocks in plan)]
            assert result.iterations == len(plan)
            assert result.bytes_read == sum(map(len, mine))
            assert result.ring_bytes == sum(len(b) - (b.rfind(b"\n") + 1) for b in mine)

    captured = collective if level == 1 else independent
    assert (independent if level == 1 else collective) == []
    assert sorted(captured, key=repr) == sorted(expected_calls, key=repr)
    assert io_clock == expected_io  # bit for bit: same requests, same order of additions
