"""Figure 18 — spatial join breakdown for Lakes ⋈ Cemetery (datasets #2, #1)
as the number of processes grows.

Paper shape: the join (refine) phase dominates and decreases with more
processes; total execution time goes down as processes are added.
"""

from harness import join_breakdown_figure

PROC_COUNTS = [1, 2, 4, 8]


def test_fig18_join_breakdown_lakes_cemetery(lustre, join_datasets, once):
    report = once(
        join_breakdown_figure,
        lustre,
        join_datasets["lakes_uniform"],
        join_datasets["cemetery_uniform"],
        PROC_COUNTS,
        "processes",
        8,
        64,
        "Figure 18",
        "Join breakdown vs processes (Lakes x Cemetery)",
    )
    report.print()

    total = dict(zip(report.series_by_label("total").x, report.series_by_label("total").y))
    refine = dict(zip(report.series_by_label("refine").x, report.series_by_label("refine").y))
    parse = dict(zip(report.series_by_label("parse").x, report.series_by_label("parse").y))

    # the per-process join and parse work shrink as processes are added
    assert refine[PROC_COUNTS[-1]] < refine[1]
    assert parse[PROC_COUNTS[-1]] < parse[1]
    # and the end-to-end time improves overall
    assert total[PROC_COUNTS[-1]] < total[1]
