"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one table or figure of the paper's evaluation
(Table 3 and Figures 8–20; PAPER.md summarises it) with the drivers in
``harness.py``.  Datasets are synthetic, scaled-down stand-ins for the
paper's OSM extracts; the interesting output of each benchmark is the printed
figure report plus the qualitative shape assertions.
"""

import gc

import pytest

from harness import ensure_dataset
from repro.datasets import SyntheticConfig, generate_dataset
from repro.pfs import ClusterConfig, GPFSFilesystem, LustreFilesystem


@pytest.fixture(scope="session")
def bench_root(tmp_path_factory):
    return tmp_path_factory.mktemp("bench")


@pytest.fixture(scope="session")
def lustre(bench_root):
    """COMET-like Lustre model (96 OSTs, 16 procs/node, FDR fabric)."""
    return LustreFilesystem(
        bench_root / "lustre",
        ost_count=96,
        cluster=ClusterConfig(procs_per_node=16, nic_bandwidth=7.0e9),
    )


@pytest.fixture(scope="session")
def gpfs(bench_root):
    """ROGER-like GPFS model (20 procs/node, 10 Gb/s uplinks)."""
    return GPFSFilesystem(bench_root / "gpfs")


@pytest.fixture(scope="session")
def join_datasets(lustre):
    """Scaled-down Lakes / Cemetery / Roads / Road Network layers used by the
    end-to-end spatial join and indexing benchmarks.

    Roads keeps a noticeably larger scale than the joined Cemetery layer so the
    communication-dominated behaviour of Figure 19 is observable, mirroring the
    paper's 24 GB ⋈ 56 MB size ratio.
    """
    # Uniformly spread variants of the joined layers: the load-balancing
    # effects of Figures 17–18 (more cells / more processes reduce the
    # per-process maximum) need work that can actually be spread, so these
    # layers disable the urban clustering of the default generator.
    uniform = SyntheticConfig(seed=11, background_fraction=1.0)
    if not lustre.exists("datasets/lakes_uniform.wkt"):
        generate_dataset(lustre, "lakes", scale=0.2, config=uniform, path="datasets/lakes_uniform.wkt")
    if not lustre.exists("datasets/cemetery_uniform.wkt"):
        generate_dataset(
            lustre, "cemetery", scale=0.75, config=uniform, path="datasets/cemetery_uniform.wkt"
        )
    return {
        "lakes": ensure_dataset(lustre, "lakes", scale=0.05),
        "lakes_uniform": "datasets/lakes_uniform.wkt",
        "cemetery": ensure_dataset(lustre, "cemetery", scale=0.25),
        "cemetery_uniform": "datasets/cemetery_uniform.wkt",
        "roads": ensure_dataset(lustre, "roads", scale=0.2),
        # cemetery layer drawn from different spatial clusters: joined against
        # the bulky Roads layer it produces few matches, which is what makes
        # the exchange (not the refine phase) dominate, as in Figure 19
        "cemetery_sparse": ensure_dataset(
            lustre, "cemetery", scale=0.25, seed=99, path="datasets/cemetery_sparse.wkt"
        ),
        "road_network": ensure_dataset(lustre, "road_network", scale=0.05),
    }


def run_once(benchmark, fn, *args, **kwargs):
    """Run a whole-figure driver exactly once under pytest-benchmark.

    The drivers charge measured CPU to the virtual clock, and late in a long
    session one generation-2 collection over everything the earlier tests
    left behind costs tens of milliseconds — more than some of the series
    the shape assertions compare.  So what is alive now is collected once
    and then frozen out of the collector's sight for the run: a collection
    inside the driver walks only the driver's own objects.
    """
    gc.collect()
    gc.freeze()
    try:
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
    finally:
        gc.unfreeze()


@pytest.fixture
def once(benchmark):
    def _run(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return _run
