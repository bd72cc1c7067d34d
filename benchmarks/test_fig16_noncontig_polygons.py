"""Figure 16 — non-contiguous (Level 3) reads of variable-length polygon
records for different block sizes, against the contiguous Level-1 baseline.

Paper shape: contiguous access performs well and improves with processes; the
non-contiguous mode is slower and very sensitive to block size (small blocks
produce many irregular requests).
"""

from harness import noncontig_polygon_figure

BLOCK_SIZES = [2, 8, 32, 128]


def test_fig16_noncontiguous_polygon_reads(gpfs, once):
    report = once(noncontig_polygon_figure, gpfs, BLOCK_SIZES)
    report.print()

    contig = dict(zip(report.series_by_label("contiguous (Level 1)").x,
                      report.series_by_label("contiguous (Level 1)").y))
    noncontig = dict(zip(report.series_by_label("non-contiguous (Level 3)").x,
                         report.series_by_label("non-contiguous (Level 3)").y))

    # non-contiguous polygon access never beats the contiguous baseline
    for block in BLOCK_SIZES:
        assert noncontig[block] >= contig[block] * 0.9

    # block size matters: the smallest block size is the most expensive
    assert noncontig[BLOCK_SIZES[0]] > noncontig[BLOCK_SIZES[-1]]
