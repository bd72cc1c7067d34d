"""Figure 9 — Level-0 read bandwidth for Roads (24 GB), stripe size 32 MB,
for different stripe counts (OSTs).

Paper shape: 8–9 GB/s peak; for a fixed process count, more OSTs give more
bandwidth until the client links saturate.
"""

from harness import level0_bandwidth_figure

FILE_SIZE = 24 << 30
NODE_COUNTS = [2, 4, 8, 16, 24, 32, 48]
STRIPE_SIZE = 32 << 20


def test_fig09_level0_bandwidth_roads(once):
    report = once(
        level0_bandwidth_figure,
        FILE_SIZE,
        [(STRIPE_SIZE, 16), (STRIPE_SIZE, 32), (STRIPE_SIZE, 64), (STRIPE_SIZE, 96)],
        NODE_COUNTS,
        16,
        "Level 0 read bandwidth, Roads (24 GB)",
        "Figure 9",
    )
    report.print()

    by_ost = {s.label: dict(zip(s.x, s.y)) for s in report.series}
    # more OSTs -> more bandwidth at a mid-size node count
    assert by_ost["stripe=32MB x 96OST"][16] > by_ost["stripe=32MB x 16OST"][16]
    assert by_ost["stripe=32MB x 64OST"][16] > by_ost["stripe=32MB x 16OST"][16]
    # every configuration scales up from the smallest node count
    for series in report.series:
        bw = dict(zip(series.x, series.y))
        assert bw[16] > bw[2]
