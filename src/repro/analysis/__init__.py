"""Correctness analysis for the SPMD serving stack.

Two complementary passes over the same hazard class — divergent
communication in rank-conditional control flow:

* :mod:`repro.analysis.spmd` — a static AST linter (rules SPMD001–SPMD005)
  that walks the source tree and reports divergent collectives, tag
  mismatches, rooted-collective disagreements, wall-clock leaks into the
  virtual-clock codebase and rank-dependent early exits that skip
  collectives.  ``scripts/spmd_lint.py`` is the CLI and the gate: a finding
  either carries a reasoned ``# spmd: ignore[RULE] reason`` comment
  (:mod:`repro.analysis.suppress`) or fails the run.
* :mod:`repro.analysis.runtime` — a MUST-style lockstep verifier armed by
  :func:`~repro.analysis.runtime.collective_check`: every
  collective piggybacks an ``(op, callsite, seq, root)`` record on the
  rendezvous and any disagreement raises
  :class:`~repro.mpisim.errors.CollectiveMismatchError` naming the
  divergent ranks and both callsites — instead of the virtual-clock
  deadlock timeout the same bug produces unarmed.

See ``src/repro/analysis/README.md`` for the rule catalog with bad/good
examples and the suppression syntax.
"""

from .runtime import CollectiveMismatchError, collective_check
from .spmd import RULES, Finding, lint_file, lint_paths, lint_source

__all__ = [
    "RULES",
    "Finding",
    "lint_source",
    "lint_file",
    "lint_paths",
    "CollectiveMismatchError",
    "collective_check",
]
