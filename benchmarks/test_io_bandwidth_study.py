"""The I/O design-space study (``io_bandwidth_study.py``) runs end to end and
prints its three reports and the observations to compare with the paper."""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent

#: the subprocess must see src/ however pytest itself was launched
ENV = {**os.environ, "PYTHONPATH": str(HERE.parent / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")}


def test_io_bandwidth_study_prints_its_reports():
    proc = subprocess.run(
        [sys.executable, str(HERE / "io_bandwidth_study.py")],
        capture_output=True,
        text=True,
        timeout=240,
        env=ENV,
    )
    assert proc.returncode == 0, f"io_bandwidth_study.py failed:\n{proc.stdout}\n{proc.stderr}"
    for header in (
        "== Study A: Level 0 read bandwidth (virtual 24 GB file) ==",
        "== Figure 10: Message vs overlap partitioning (Lakes) ==",
        "== Figure 11: Level 1 collective read time (Roads) ==",
    ):
        assert header in proc.stdout
    observations = proc.stdout.split("Observations to compare with the paper:\n")[1].splitlines()
    assert len(observations) == 3
    for observation, claim in zip(observations, (
        "bandwidth rises with node count",
        "message-based partitioning beats halo reads",
        "collective read time dips",
    )):
        assert observation.startswith(" * ") and claim in observation
