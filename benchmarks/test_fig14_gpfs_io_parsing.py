"""Figure 14 — I/O + parsing performance for All Nodes (points, 96 GB) and
All Objects (polygons, 92 GB) on GPFS with Level-1 access.

Paper shape: although the files are about the same size, All Objects takes
longer because polygon parsing costs more than point parsing; both layers
scale with the number of processes up to around 80.
"""

from harness import gpfs_io_parsing_figure

PROC_COUNTS = [2, 4, 8, 16]


def test_fig14_gpfs_io_plus_parsing(gpfs, once):
    report = once(gpfs_io_parsing_figure, gpfs, PROC_COUNTS)
    report.print()

    nodes_t = dict(zip(report.series_by_label("All Nodes (points)").x,
                       report.series_by_label("All Nodes (points)").y))
    objects_t = dict(zip(report.series_by_label("All Objects (polygons)").x,
                         report.series_by_label("All Objects (polygons)").y))

    # polygons cost more than points at every process count
    for p in PROC_COUNTS:
        assert objects_t[p] > nodes_t[p]

    # both layers get faster as processes are added (parsing parallelises)
    assert objects_t[PROC_COUNTS[-1]] < objects_t[PROC_COUNTS[0]]
    assert nodes_t[PROC_COUNTS[-1]] < nodes_t[PROC_COUNTS[0]]
