"""Figure 19 — spatial join breakdown for Roads ⋈ Cemetery (datasets #3, #1).

Paper shape: with the larger, more skewed Roads layer the communication cost
(serialisation + all-to-all exchange + waiting on stragglers) dominates the
execution time, unlike the Lakes ⋈ Cemetery case of Figure 18 where the join
phase dominates.
"""

from harness import join_breakdown_figure

PROC_COUNTS = [2, 4, 8]


def test_fig19_join_breakdown_roads_cemetery(lustre, join_datasets, once):
    report = once(
        join_breakdown_figure,
        lustre,
        join_datasets["roads"],
        join_datasets["cemetery_sparse"],
        PROC_COUNTS,
        "processes",
        8,
        64,
        "Figure 19",
        "Join breakdown vs processes (Roads x Cemetery)",
    )
    report.print()

    comm = dict(zip(report.series_by_label("communication").x,
                    report.series_by_label("communication").y))
    refine = dict(zip(report.series_by_label("refine").x, report.series_by_label("refine").y))
    total = dict(zip(report.series_by_label("total").x, report.series_by_label("total").y))

    # communication is the dominant computation-side component for this pair:
    # the bulky Roads layer has to be serialised and redistributed while the
    # tiny Cemetery layer keeps the per-cell join cheap (the paper's
    # observation for datasets #3 x #1)
    for p in PROC_COUNTS:
        assert comm[p] > refine[p]

    # every phase stays positive and the totals are sensible
    assert all(v > 0 for v in total.values())
