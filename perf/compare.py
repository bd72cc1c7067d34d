#!/usr/bin/env python3
"""Diff two suite documents written by ``run.py --out``.

    python3 perf/compare.py base.json new.json

prints one row per workload x end-to-end metric — base, new, new/base, the
metric's bound and a verdict:

* ``same``       within the bound either way (exact metrics: identical);
* ``better`` / ``worse``  beyond the bound in that direction;
* ``unresolved`` the quartile spread of either side's rounds exceeds the
  bound, so the two medians cannot be told apart at that resolution.

Counts taken from public stats are exact for a fixed seed; they are listed as
``same`` or ``changed``.  Exits non-zero on any ``worse``.  An A/A comparison
(``run.py --aa``: same code, same seed, twice) must also show no
``unresolved`` row and no ``changed`` count.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Tuple

from catalog import END_TO_END, Metric

__all__ = ["rows", "report"]

Row = Tuple[str, str, float, float, str, str]


def _verdict(metric: Metric, base: Dict[str, Any], new: Dict[str, Any]) -> str:
    b, n = base["value"], new["value"]
    gain = (b - n) if metric.better == "lower" else (n - b)
    if not metric.bound:  # exact: any difference is real
        return "same" if n == b else ("better" if gain > 0 else "worse")
    spread = max((side["q3"] - side["q1"]) / side["value"] for side in (base, new))
    if spread > metric.bound:
        return "unresolved"
    if abs(gain) <= metric.bound * b:
        return "same"
    return "better" if gain > 0 else "worse"


def rows(base: Dict[str, Any], new: Dict[str, Any]) -> List[Row]:
    """``(workload, metric, base, new, bound, verdict)`` for every end-to-end
    metric and every exact count both documents carry."""
    out: List[Row] = []
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            continue
        for metric in END_TO_END:
            if metric.name in b["end_to_end"] and metric.name in n["end_to_end"]:
                be, ne = b["end_to_end"][metric.name], n["end_to_end"][metric.name]
                out.append((workload, metric.name, be["value"], ne["value"],
                            f"{metric.bound:.0%}" if metric.bound else "exact",
                            _verdict(metric, be, ne)))
        for name in sorted(set(b["counts"]) & set(n["counts"])):
            bc, nc = b["counts"][name], n["counts"][name]
            out.append((workload, name, bc, nc, "count", "same" if bc == nc else "changed"))
    return out


def report(base: Dict[str, Any], new: Dict[str, Any], aa: bool = False) -> int:
    """Print the comparison; returns the process exit status."""
    if base["seed"] != new["seed"] or base["quick"] != new["quick"]:
        print("warning: the two documents were not made from the same seed and sizes")
    table = rows(base, new)
    print(f"{'workload':<14} {'metric':<30} {'base':>14} {'new':>14} {'new/base':>9} "
          f"{'bound':>6}  verdict")
    for workload, name, b, n, bound, verdict in table:
        ratio = f"{n / b:9.4f}" if b else f"{'-':>9}"
        print(f"{workload:<14} {name:<30} {b:>14.6g} {n:>14.6g} {ratio} {bound:>6}  {verdict}")
    fatal = {"worse", "unresolved", "changed"} if aa else {"worse"}
    bad = [row for row in table if row[5] in fatal]
    print(f"{len(table)} rows, {len(bad)} failing"
          + (f": {sorted({row[5] for row in bad})}" if bad else ""))
    return 1 if bad else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return report(*docs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
