#!/usr/bin/env python
"""Design-space exploration of parallel I/O for vector data.

Reproduces, at laptop scale, the questions §5.1 of the paper asks of the
filesystem: how does read bandwidth change with node count, stripe count and
access level, and when do collective reads pay off?  The drivers are the
ones ``harness.py`` beside it gives the benchmark suite for Figures 8–11.

Run it from the repository root with::

    PYTHONPATH=src python benchmarks/io_bandwidth_study.py
"""

from __future__ import annotations

import tempfile

from harness import (
    collective_read_figure,
    level0_bandwidth_figure,
    message_vs_overlap_figure,
)

FILE_SIZE = 24 << 30  # a virtual 24 GB "Roads" file
NODES = [4, 8, 16, 24, 32, 48, 64]


def main() -> None:
    # Level 0: independent contiguous reads for two stripe configurations.
    level0 = level0_bandwidth_figure(
        FILE_SIZE,
        [(32 << 20, 32), (32 << 20, 96)],
        NODES,
        procs_per_node=16,
        title="Level 0 read bandwidth (virtual 24 GB file)",
        figure="Study A",
    )
    level0.print()

    # Message-based Algorithm 1 vs overlapping halo reads.
    strategies = message_vs_overlap_figure(
        FILE_SIZE, 32 << 20, [32], NODES, block_size=32 << 20
    )
    strategies.print()

    # Level 1 collective reads: the ROMIO aggregator-selection effect.
    with tempfile.TemporaryDirectory(prefix="mpi-vector-io-study-") as root:
        collective = collective_read_figure(root, FILE_SIZE, 16 << 20, [64], NODES)
        collective.print()

    print("Observations to compare with the paper:")
    print(" * bandwidth rises with node count, then saturates (Figures 8-9)")
    print(" * the message-based partitioning beats halo reads (Figure 10)")
    print(" * collective read time dips when the node count divides the stripe count (Figure 11)")


if __name__ == "__main__":
    main()
