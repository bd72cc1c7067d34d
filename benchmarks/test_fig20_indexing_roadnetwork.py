"""Figure 20 — execution-time breakdown for distributed in-memory spatial
indexing of the Road Network layer over 2048 grid cells.

Paper shape: every phase (partitioning, communication, indexing) improves as
processes are added; with 320 processes the paper indexes 717 M edges in about
90 seconds.  The reproduction checks the scaling trend on the scaled dataset.
"""

from harness import run_indexing_breakdown
from reporting import FigureReport

PROC_COUNTS = [1, 2, 4, 8]
NUM_CELLS = 128  # scaled stand-in for the paper's 2048 cells


def test_fig20_indexing_breakdown_road_network(lustre, join_datasets, once):
    def driver():
        report = FigureReport(
            "Figure 20", "Distributed indexing breakdown (Road Network)", "processes", "time (s)"
        )
        series = {
            phase: report.add_series(phase)
            for phase in ("io", "parse", "partition", "communication", "refine", "total")
        }
        for p in PROC_COUNTS:
            breakdown = run_indexing_breakdown(
                lustre, join_datasets["road_network"], p, NUM_CELLS
            )
            for phase, s in series.items():
                s.add(p, breakdown[phase])
        return report

    report = once(driver)
    report.print()

    parse = dict(zip(report.series_by_label("parse").x, report.series_by_label("parse").y))
    refine = dict(zip(report.series_by_label("refine").x, report.series_by_label("refine").y))
    total = dict(zip(report.series_by_label("total").x, report.series_by_label("total").y))

    # per-process parsing and index-building work shrink with more processes
    assert parse[PROC_COUNTS[-1]] < parse[1]
    assert refine[PROC_COUNTS[-1]] < refine[1] * 1.05
    # and the overall time improves
    assert total[PROC_COUNTS[-1]] < total[1]
