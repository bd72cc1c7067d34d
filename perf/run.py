#!/usr/bin/env python3
"""The benchmark's one command.

Driver form (what ``BENCHMARK.json`` names)::

    python3 perf/run.py --workload W --seed S --seconds T --trace 0|1

builds W's seeded fixtures (several times when untraced: ``setup_s`` is the
median), runs W in a child process over them (``PYTHONHASHSEED=0``; the
child's resident high-water mark is ``peak_rss_mb``), checks the results against the
oracle, prints every metric by name with its unit and ends with one JSON line
— the end-to-end metrics for ``--trace 0``, the per-layer ones for
``--trace 1``.

Suite form (no ``--workload``)::

    python3 perf/run.py --seed S [--out FILE] [--quick] [--aa] [--trace-out DIR]

runs all five workloads untraced, then one traced pass each, cross-checks
their digests and writes one document ``compare.py`` can diff.  ``--aa`` runs
the untraced set twice and compares the two (the noise floor); ``--quick``
uses tiny fixtures and a single round (the smoke test).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import catalog  # noqa: E402
import compare  # noqa: E402
import derive  # noqa: E402
import fixtures  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SCHEMA = 1
#: fixtures live here while a run lasts (inside the checkout, git-ignored)
WORK = HERE / ".work"
#: a child that has not finished by then is killed and the run fails
CHILD_TIMEOUT_S = 150


# ---------------------------------------------------------------------- #
# child: the system under test
# ---------------------------------------------------------------------- #
def _peak_rss_mb() -> float:
    """This process's own resident high-water mark (``VmHWM``).  Not
    ``ru_maxrss``: Linux carries that across fork + exec, so a child would
    report the fixture-building parent's peak whenever it is the larger."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def child_main(args: argparse.Namespace) -> int:
    root = Path(args.child)
    workload = workloads.WORKLOADS[args.workload](fixtures.load(root), root)
    ops = workload.ops
    doc: Dict[str, Any] = {"ops": ops}

    if not args.trace:
        rounds = workload.measure(args.seconds)
        doc.update(derive.verdict(args.workload, rounds, ops))
        rss_mb = _peak_rss_mb()
        doc["rounds"] = len(rounds)
        doc["calibration_s"] = statistics.median(r.cal_s for r in rounds)
        doc["metrics"] = derive.end_to_end(rounds, ops, rss_mb, doc["failed"])
        # exact counts from public stats: an A/A comparison needs them equal
        exact = {m.name for m in catalog.PER_LAYER if m.clock == "exact"}
        doc["counts"] = {k: v for k, v in rounds[0].counters.items() if k in exact}
    else:
        # untraced rounds first (the overhead baseline), then the span-traced
        # rounds, then the one-round variants the workload supports
        base = workload.measure(0.3 * args.seconds)
        workload.rec = rec = spans.Recorder()
        undo = spans.install(rec)
        try:
            traced = workload.measure(0.4 * args.seconds)
        finally:
            spans.uninstall(undo)
            workload.rec = None
        extra: Dict[str, float] = {}
        if args.workload == "serve_cold":
            extra["cost_model_sim_io"] = workload.measure(0, io_policy="cost_model")[0].sim_io_s
        if args.workload == "serve_sharded":
            extra["armed"] = workload.measure(0, armed=True)[0].host_s
            extra["obs"] = workload.measure(0, obs=True)[0].host_s
            single = workloads.ServeWarm(workload.fx, root)
            extra["single_per_query"] = single.measure(0)[0].host_s / ops
        doc.update(derive.verdict(args.workload, list(base) + list(traced), ops))
        doc["rounds"] = len(traced)
        doc["calibration_s"] = statistics.median(r.cal_s for r in traced)
        values = derive.per_layer(base, traced, rec, ops, extra)
        doc["metrics"] = {m.name: {"value": values[m.name], "unit": m.unit}
                          for m in catalog.PER_LAYER}
        doc["problems"] += [f"wrap target {t} recorded no span" for t in rec.silent(args.workload)]
        problem = derive.accounting_problem(traced, rec)
        if problem:
            doc["problems"].append(problem)
        if args.trace_out:
            rec.write_jsonl(args.trace_out)
    print(json.dumps(doc))
    return 0


# ---------------------------------------------------------------------- #
# parent: fixtures, child process, report
# ---------------------------------------------------------------------- #
def run_one(workload: str, seed: int, seconds: float, trace: bool, quick: bool,
            trace_out: Optional[str] = None) -> Dict[str, Any]:
    """Build fixtures, run *workload* in a child, return its document with
    ``setup_s`` added.  Raises ``RuntimeError`` when the child fails."""
    sizes = fixtures.SIZES["quick" if quick else "full"]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        root = Path(tmp) / "fixture"
        setups: List[float] = []
        for _ in range(1 if trace else sizes.setup_repeats):
            shutil.rmtree(root, ignore_errors=True)
            kernel = workloads.calibration_kernel()
            start = time.perf_counter()
            fixtures.build(workload, root, seed, sizes)
            elapsed = time.perf_counter() - start
            kernel = (kernel + workloads.calibration_kernel()) / 2
            setups.append(elapsed * workloads.CAL_NOMINAL_S / kernel)
        cmd = [sys.executable, str(HERE / "run.py"), "--child", str(root), "--workload", workload,
               "--seconds", str(seconds), "--trace", str(int(trace))]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        proc = subprocess.run(cmd, env={**os.environ, "PYTHONHASHSEED": "0"},
                              stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited with code {proc.returncode}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    if not trace:
        doc["metrics"]["setup_s"] = derive.summary("setup_s", setups)
    return doc


def report(workload: str, seed: int, trace: bool, doc: Dict[str, Any]) -> None:
    """Every metric by name, with its unit."""
    print(f"# {workload}  seed={seed}  trace={int(trace)}  rounds={doc['rounds']}  "
          f"ops/round={doc['ops']}  digest={doc['digest']}  "
          f"calibration kernel={doc['calibration_s']:.4f}s (nominal {workloads.CAL_NOMINAL_S}s)")
    for name, row in doc["metrics"].items():
        spread = f"  q1={row['q1']:.6g} q3={row['q3']:.6g} n={row['n']}" if "n" in row else ""
        print(f"  {name:<44} {row['value']:>14.6g} {row['unit']:<6}{spread}")
    for problem in doc["problems"]:
        print(f"  PROBLEM: {problem}")


def driver_main(args: argparse.Namespace) -> int:
    trace = bool(args.trace)
    doc = run_one(args.workload, args.seed, args.seconds, trace, args.quick, args.trace_out)
    report(args.workload, args.seed, trace, doc)
    print(json.dumps({
        "correct": not doc["problems"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m.name: {"value": doc["metrics"][m.name]["value"], "unit": m.unit}
                    for m in catalog.driver_metrics(trace)},
    }))
    return 0


def _commit() -> str:
    try:
        return subprocess.run(["git", "-C", str(HERE), "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_suite(args: argparse.Namespace, traced: bool) -> Dict[str, Any]:
    seconds = 0.0 if args.quick else args.seconds
    suite: Dict[str, Any] = {
        "schema": SCHEMA, "commit": _commit(), "seed": args.seed, "quick": args.quick,
        "seconds": seconds, "nproc": os.cpu_count(), "python": platform.python_version(),
        "workloads": {},
    }
    for name in catalog.WORKLOADS:
        doc = run_one(name, args.seed, seconds, False, args.quick)
        report(name, args.seed, False, doc)
        entry = {"ops": doc["ops"], "rounds": doc["rounds"], "digest": doc["digest"],
                 "problems": doc["problems"], "end_to_end": doc["metrics"],
                 "counts": doc["counts"]}
        if traced:
            trace_out = (str(Path(args.trace_out) / f"{name}.jsonl") if args.trace_out else None)
            layer = run_one(name, args.seed, seconds, True, args.quick, trace_out)
            report(name, args.seed, True, layer)
            entry["per_layer"] = layer["metrics"]
            entry["problems"] += layer["problems"]
        suite["workloads"][name] = entry
    loads = suite["workloads"]
    if loads["serve_warm"]["digest"] != loads["serve_sharded"]["digest"]:
        loads["serve_sharded"]["problems"].append(
            "answers differ from serve_warm's for the same windows")
    return suite


def suite_main(args: argparse.Namespace) -> int:
    if args.trace_out:
        Path(args.trace_out).mkdir(parents=True, exist_ok=True)
    suite = run_suite(args, traced=not args.aa)
    status = 0
    if args.aa:
        again = run_suite(args, traced=False)
        status = compare.report(suite, again, aa=True)
        suite = {"a": suite, "b": again}
    if args.out:
        Path(args.out).write_text(json.dumps(suite, indent=1) + "\n", encoding="utf-8")
    runs = suite.values() if args.aa else [suite]
    if any(w["problems"] for run in runs for w in run["workloads"].values()):
        print("FAILED: see the PROBLEM lines above", file=sys.stderr)
        return 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(catalog.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny fixtures, one round")
    parser.add_argument("--aa", action="store_true", help="run the untraced set twice and compare")
    parser.add_argument("--out", help="write the suite document here")
    parser.add_argument("--trace-out", help="span JSONL file (driver form) or directory (suite)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if args.workload:
        return driver_main(args)
    return suite_main(args)


if __name__ == "__main__":
    sys.exit(main())
