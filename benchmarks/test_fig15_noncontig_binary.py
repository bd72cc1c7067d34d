"""Figure 15 — binary MBR file read time for contiguous vs non-contiguous
collective access modes, across block sizes (given in number of MBRs).

Paper shape: contiguous access is much faster; the non-contiguous time falls
as the block size grows because aggregation and per-request overhead shrink.
"""

from harness import noncontig_binary_figure

TOTAL_RECORDS = 500_000  # 8 MB of 16-byte MBR records (scaled stand-in for 10 GB)
BLOCK_SIZES = [64, 256, 1024, 4096]


def test_fig15_contiguous_vs_noncontiguous_binary(gpfs, once):
    report = once(noncontig_binary_figure, gpfs, TOTAL_RECORDS, BLOCK_SIZES)
    report.print()

    contig = dict(zip(report.series_by_label("contiguous (Level 1)").x,
                      report.series_by_label("contiguous (Level 1)").y))
    noncontig = dict(zip(report.series_by_label("non-contiguous (Level 3)").x,
                         report.series_by_label("non-contiguous (Level 3)").y))

    for block in BLOCK_SIZES:
        # contiguous access wins at every block size
        assert contig[block] < noncontig[block]

    # larger blocks make the non-contiguous access cheaper
    assert noncontig[BLOCK_SIZES[-1]] < noncontig[BLOCK_SIZES[0]]
