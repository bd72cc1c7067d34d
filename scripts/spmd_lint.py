#!/usr/bin/env python
"""SPMD collective-correctness linter (rules SPMD001-SPMD005).

Thin launcher for :mod:`repro.analysis.cli`; kept runnable from a bare
checkout — no installed package, no PYTHONPATH — because CI invokes it as
``python scripts/spmd_lint.py src examples tests``.  It prints every finding
that no reasoned ``# spmd: ignore[RULE] reason`` comment silences and exits 1
if there is one; a path that does not exist is a usage error.  Run
``--help`` for the rule catalog, or see ``src/repro/analysis/README.md`` for
worked examples and the suppression syntax.
"""

import pathlib
import sys

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.analysis.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
