"""Correctness analysis for the SPMD serving stack.

Two complementary passes over the same hazard class — divergent
communication in rank-conditional control flow:

* :mod:`repro.analysis.spmd` — a static AST linter (rules SPMD001–SPMD005)
  that walks the source tree and reports divergent collectives, tag
  mismatches, rooted-collective disagreements, wall-clock leaks into the
  virtual-clock codebase and rank-dependent early exits that skip
  collectives.  ``scripts/spmd_lint.py`` is the CLI; findings are gated
  against a checked-in JSON baseline (:mod:`repro.analysis.baseline`) with
  ``# spmd: ignore[RULE] reason`` inline suppressions
  (:mod:`repro.analysis.suppress`).
* :mod:`repro.analysis.runtime` — a MUST-style lockstep verifier armed by
  :func:`~repro.analysis.runtime.collective_check`: every
  collective piggybacks an ``(op, callsite, seq, root)`` record on the
  rendezvous and any disagreement raises
  :class:`~repro.mpisim.errors.CollectiveMismatchError` naming the
  divergent ranks and both callsites — instead of the virtual-clock
  deadlock timeout the same bug produces unarmed.

See ``src/repro/analysis/README.md`` for the rule catalog with bad/good
examples, the suppression syntax and the baseline workflow.
"""

from .baseline import Baseline, load_baseline, write_baseline
from .runtime import CollectiveMismatchError, collective_check
from .spmd import RULES, Finding, lint_file, lint_paths, lint_source

__all__ = [
    "RULES",
    "Finding",
    "lint_source",
    "lint_file",
    "lint_paths",
    "Baseline",
    "load_baseline",
    "write_baseline",
    "CollectiveMismatchError",
    "collective_check",
]
