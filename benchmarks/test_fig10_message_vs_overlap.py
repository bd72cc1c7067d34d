"""Figure 10 — message-based dynamic file partitioning vs overlapping (halo)
reads for the Lakes layer (9 GB), three stripe counts, 32 MB blocks.

Paper shape: the message-based algorithm wins across the board because the
overhead of reading an extra 11 MB halo per process per iteration exceeds the
cost of exchanging the missing coordinates.
"""

from harness import message_vs_overlap_figure

FILE_SIZE = 9 << 30
NODE_COUNTS = [2, 4, 8, 16, 32]
STRIPE_COUNTS = [16, 32, 64]


def test_fig10_message_vs_overlap(once):
    report = once(
        message_vs_overlap_figure,
        FILE_SIZE,
        32 << 20,
        STRIPE_COUNTS,
        NODE_COUNTS,
    )
    report.print()

    for ost in STRIPE_COUNTS:
        msg = dict(zip(*[report.series_by_label(f"message OST={ost}").x,
                         report.series_by_label(f"message OST={ost}").y]))
        ovl = dict(zip(*[report.series_by_label(f"overlap OST={ost}").x,
                         report.series_by_label(f"overlap OST={ost}").y]))
        # the message-based strategy is faster for every node count
        for nodes in NODE_COUNTS:
            assert msg[nodes] < ovl[nodes], (
                f"message-based partitioning should beat overlap at {nodes} nodes / {ost} OSTs"
            )
