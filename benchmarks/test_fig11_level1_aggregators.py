"""Figure 11 — Level-1 (collective, contiguous) read time for Roads (24 GB),
16 MB blocks, stripe counts 32/64/96, across node counts including the
non-divisor cases 24 and 48.

Paper shape: performance drops at 24 and 48 nodes on 64 OSTs because ROMIO
selects only 16 and 32 aggregator readers respectively (the node count must be
a multiple or divisor of the stripe count to use every node).  Collective
reads are also slower overall than the independent reads of Figure 9.
"""

from harness import algorithm1_read_time, collective_read_figure
from repro.pfs import ClusterConfig, IOCostModel, StripeLayout

FILE_SIZE = 24 << 30
BLOCK = 16 << 20
NODE_COUNTS = [8, 16, 24, 32, 48, 64]


def test_fig11_level1_aggregator_effect(bench_root, once):
    report = once(
        collective_read_figure,
        bench_root,
        FILE_SIZE,
        BLOCK,
        [32, 64, 96],
        NODE_COUNTS,
    )
    report.print()

    ost64 = dict(zip(report.series_by_label("OST=64").x, report.series_by_label("OST=64").y))
    # the aggregator dips: 24 nodes (16 readers) is slower than 16 nodes
    # (16 readers but less data per reader is irrelevant — same readers, so at
    # best equal); 48 nodes (32 readers) must not beat 32 nodes (32 readers),
    # while the well-aligned 64-node case is the fastest.
    assert ost64[24] >= ost64[16] * 0.99
    assert ost64[48] >= ost64[32] * 0.99
    assert ost64[64] < ost64[24]
    assert ost64[64] < ost64[48]

    # collective (Level 1) is slower than independent (Level 0) for the same
    # contiguous pattern — the paper's headline observation
    cost = IOCostModel(ost_bandwidth=1.1e9, cluster=ClusterConfig(procs_per_node=16, nic_bandwidth=7.0e9))
    level0 = algorithm1_read_time(cost, StripeLayout(BLOCK, 64), FILE_SIZE, 32 * 16, BLOCK)
    assert ost64[32] > level0
