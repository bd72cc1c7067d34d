"""Smoke test of the benchmark itself: ``python -m pytest perf -q``.

Outside the Tier-1 ``testpaths`` on purpose — it checks the instrument, not
the library: the quick suite emits every declared metric with a unit, the
driver line has the contracted shape, and a document compared with itself is
all ``same``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import compare  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_generated_from_the_catalog():
    text = (HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8")
    assert text == catalog.benchmark_json()
    doc = json.loads(text)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8 and len(doc["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in doc[key]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(UNIT.fullmatch(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.fixture(scope="module")
def quick_suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "suite.json"
    traces = out.parent / "traces"
    proc = subprocess.run(RUN + ["--quick", "--seed", "3", "--out", str(out),
                                 "--trace-out", str(traces)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(out.read_text(encoding="utf-8")), traces


def test_quick_suite_emits_every_declared_metric(quick_suite):
    suite, traces = quick_suite
    assert suite["schema"] == 1 and suite["seed"] == 3 and suite["quick"] is True
    assert {"commit", "nproc", "python"} <= set(suite)
    assert list(suite["workloads"]) == list(catalog.WORKLOADS)
    for name, entry in suite["workloads"].items():
        assert entry["problems"] == [], (name, entry["problems"])
        expected = {m.name: m.unit for m in catalog.END_TO_END if name in m.workloads}
        assert {k: v["unit"] for k, v in entry["end_to_end"].items()} == expected
        assert entry["end_to_end"]["error_rate"]["value"] == 0
        assert ({k: v["unit"] for k, v in entry["per_layer"].items()}
                == {m.name: m.unit for m in catalog.PER_LAYER})
        first_span = json.loads((traces / f"{name}.jsonl").read_text().splitlines()[0])
        assert {"layer", "name", "parent", "rank", "round", "start", "end", "self_cpu"} <= set(first_span)
    loads = suite["workloads"]
    assert loads["serve_warm"]["digest"] == loads["serve_sharded"]["digest"]
    for name in ("serve_warm", "serve_sharded"):
        assert loads[name]["end_to_end"]["sim_io_s"]["value"] == 0


def test_a_document_compared_with_itself_is_all_same(quick_suite, capsys):
    suite, _ = quick_suite
    assert compare.report(suite, suite, aa=True) == 0
    table = compare.rows(suite, suite)
    assert table and {row[5] for row in table} == {"same"}


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_line_has_the_contracted_shape(trace):
    proc = subprocess.run(RUN + ["--workload", "serve_cold", "--seed", "5", "--seconds", "0",
                                 "--trace", str(trace), "--quick"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    declared = {m.name: m.unit for m in catalog.driver_metrics(bool(trace))}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
