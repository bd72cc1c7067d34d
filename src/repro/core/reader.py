"""High-level facade: parallel reading + parsing of vector datasets.

:class:`VectorIO` wires the file-partitioning layer to the WKT parser and
charges the parse phase to the rank's virtual clock, which is what the paper's
"I/O + parsing" experiments (Table 3, Figure 14) measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..geometry import Geometry
from ..mpisim import Communicator
from ..pfs import SimulatedFilesystem
from .parsers import WKTParser
from .partition import PartitionConfig, PartitionResult, read_records

__all__ = ["ReadReport", "VectorIO"]


@dataclass
class ReadReport:
    """What a rank got out of a partitioned read + parse."""

    geometries: List[Geometry]
    partition: PartitionResult
    io_seconds: float
    parse_seconds: float

    @property
    def num_geometries(self) -> int:
        return len(self.geometries)


class VectorIO:
    """Parallel reader for vector datasets stored on a simulated PFS.

    Example (inside an SPMD function)::

        vio = VectorIO(fs)
        report = vio.read_geometries(comm, "datasets/lakes.wkt")
        local_polygons = report.geometries
    """

    def __init__(
        self,
        fs: SimulatedFilesystem,
        config: Optional[PartitionConfig] = None,
        strategy: str = "message",
    ) -> None:
        self.fs = fs
        self.config = config or PartitionConfig()
        self.strategy = strategy

    # ------------------------------------------------------------------ #
    def read_records(self, comm: Communicator, path: str) -> PartitionResult:
        """Partition the file and return this rank's complete raw records."""
        return read_records(comm, self.fs, path, self.config, self.strategy)

    def read_geometries(self, comm: Communicator, path: str) -> ReadReport:
        """Partition, read and parse: returns this rank's geometries."""
        io_before = comm.clock.category("io")
        partition = self.read_records(comm, path)
        io_after = comm.clock.category("io")

        parse_before = comm.clock.category("parse")
        with comm.clock.compute(category="parse"):
            geometries = WKTParser().parse_many(
                record.decode("utf-8", errors="replace") for record in partition.records
            )
        parse_after = comm.clock.category("parse")

        return ReadReport(
            geometries=geometries,
            partition=partition,
            io_seconds=io_after - io_before,
            parse_seconds=parse_after - parse_before,
        )

    def sequential_read(self, path: str) -> ReadReport:
        """Single-process baseline (the "sequential parsing time" column of
        Table 3): read the whole file and parse it without MPI."""
        from ..mpisim import run_spmd

        def prog(comm: Communicator) -> ReadReport:
            return self.read_geometries(comm, path)

        result = run_spmd(prog, 1)
        return result.values[0]
