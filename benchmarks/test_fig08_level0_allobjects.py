"""Figure 8 — Level-0 (independent, contiguous) read bandwidth for the
All Objects layer (92 GB), stripe sizes 64 MB and 128 MB on 64 OSTs.

Paper shape: bandwidth grows with the number of nodes, peaks in the tens of
GB/s around 32–48 nodes and then flattens/saturates; the larger stripe size
gives comparable peak bandwidth.
"""

from harness import level0_bandwidth_figure

FILE_SIZE = 92 << 30  # 92 GB virtual file (pattern-level driver, no data)
NODE_COUNTS = [4, 8, 16, 24, 32, 48, 64, 72]


def test_fig08_level0_bandwidth_allobjects(once):
    report = once(
        level0_bandwidth_figure,
        FILE_SIZE,
        [(64 << 20, 64), (128 << 20, 64)],
        NODE_COUNTS,
        16,
        "Level 0 read bandwidth, All Objects (92 GB)",
        "Figure 8",
    )
    report.print()

    for series in report.series:
        bw = dict(zip(series.x, series.y))
        # bandwidth improves substantially from 4 nodes to the mid range
        assert bw[32] > bw[4] * 1.5
        # and saturates: the last doubling of nodes buys little
        assert bw[72] < bw[48] * 1.5
        # peak bandwidth lands in the multi-GB/s regime (tens of GB/s on the
        # modelled 64-OST configuration)
        assert series.max() > 5.0
