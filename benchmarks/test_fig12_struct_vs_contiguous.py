"""Figure 12 — binary file reading with MPI derived datatypes on GPFS:
``MPI_Type_struct`` vs a user-assembled ``MPI_Type_contiguous``.

Paper shape: the struct type is consistently faster because the MPI
implementation materialises the record internally, whereas the contiguous
variant leaves the user code to assemble each 4-float MBR.
"""

from harness import struct_vs_contiguous_figure

RECORD_COUNTS = [50_000, 100_000, 200_000]


def test_fig12_struct_vs_contiguous(gpfs, once):
    report = once(struct_vs_contiguous_figure, gpfs, RECORD_COUNTS)
    report.print()

    struct_t = dict(zip(report.series_by_label("MPI_Type_struct").x,
                        report.series_by_label("MPI_Type_struct").y))
    contig_t = dict(zip(report.series_by_label("MPI_Type_contiguous (user)").x,
                        report.series_by_label("MPI_Type_contiguous (user)").y))

    for count in RECORD_COUNTS:
        assert struct_t[count] < contig_t[count]
    # both grow with the record count
    assert struct_t[RECORD_COUNTS[-1]] > struct_t[RECORD_COUNTS[0]]
    assert contig_t[RECORD_COUNTS[-1]] > contig_t[RECORD_COUNTS[0]]
