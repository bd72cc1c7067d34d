"""Figure 13 — MPI_Reduce and MPI_Scan with the geometric-union operator over
100K / 200K / 400K rectangles.

Paper shape: cost grows with the number of rectangles; Scan is at least as
expensive as Reduce (it computes a prefix per rank).  This is the operator the
system uses to derive the global grid extent during spatial partitioning.
"""

from harness import union_reduce_scan_figure

RECT_COUNTS = [100_000, 200_000, 400_000]


def test_fig13_union_reduce_and_scan(once):
    report = once(union_reduce_scan_figure, RECT_COUNTS, 8)
    report.print()

    reduce_t = dict(zip(report.series_by_label("MPI_Reduce").x,
                        report.series_by_label("MPI_Reduce").y))
    scan_t = dict(zip(report.series_by_label("MPI_Scan").x,
                      report.series_by_label("MPI_Scan").y))

    # cost grows with the rectangle count for both collectives
    assert reduce_t[400_000] > reduce_t[100_000]
    assert scan_t[400_000] > scan_t[100_000]
    # all measurements are positive and finite
    assert all(v > 0 for v in reduce_t.values())
    assert all(v > 0 for v in scan_t.values())
