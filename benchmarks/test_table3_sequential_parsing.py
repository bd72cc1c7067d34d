"""Table 3 — sequential I/O + parsing time per dataset.

Paper: six OSM extracts; parsing a 100 GB-class file takes about an hour, and
polygonal data (All Objects) parses slower than larger-but-simpler line/point
data.  Reproduction: scaled synthetic datasets; the shape to check is the
relative ordering (cemetery ≪ lakes < roads < the big three) and that the
mixed polygon layer costs more per geometry than the point layer.

The ordering is asserted on what determines it — file bytes, geometry counts
and the cost model's I/O charge, all exact for a seed — not on the measured
totals: each total is the CPU of a separate ``run_spmd`` call, and one
generation-2 collection (tens of milliseconds late in a long session) is
more than the whole Cemetery row — in a full session, where the layers other
benchmarks already generated are reused at their smaller scales, Cemetery
and Lakes are 3 ms apart.  The one CPU-shaped claim is the per-geometry
ratio, which has a ~5x margin.
"""

from repro.bench import sequential_parse_table
from repro.datasets import DATASETS

BIG_THREE = ("all_objects", "road_network", "all_nodes")


def test_table3_sequential_parsing(lustre, once):
    report = once(sequential_parse_table, lustre, 0.5)
    report.print()

    times, counts, io, sizes = (dict(zip(s.x, s.y)) for s in report.series)
    table = "\n".join(
        f"{name:>14}: {times[name]:.4f} s total, {io[name]:.5f} s io, "
        f"{int(counts[name])} geometries, {int(sizes[name])} bytes"
        for name in times
    )

    # every dataset was generated and parsed
    assert set(times) == set(DATASETS), table
    assert all(v > 0 for v in times.values()), table
    assert all(counts[name] > 0 for name in DATASETS), table

    # shape: the small Cemetery layer is by far the cheapest to read and the
    # three large layers dominate, as in the paper's Table 3
    for column in (sizes, counts, io):
        assert column["cemetery"] < column["lakes"], table
        assert column["cemetery"] < min(column[name] for name in BIG_THREE), table
    assert all(0 < io[name] < times[name] for name in DATASETS), table

    # polygons cost more to parse per geometry than points (Figure 14's point)
    per_geom_objects = times["all_objects"] / counts["all_objects"]
    per_geom_nodes = times["all_nodes"] / counts["all_nodes"]
    assert per_geom_objects > per_geom_nodes, table
