"""Command-line front end for the SPMD linter (``scripts/spmd_lint.py``).

Usage::

    python scripts/spmd_lint.py src examples tests

The command is the gate: it prints every finding that no reasoned
``# spmd: ignore[RULE] reason`` comment silences (:mod:`repro.analysis.suppress`)
and exits 1 if there is one, 0 otherwise.  A path that is neither a
directory nor a ``.py`` file is a usage error (exit 2), so a mistyped path
cannot lint nothing and pass.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .spmd import RULES, lint_paths

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spmd_lint",
        description="SPMD collective-correctness linter (rules SPMD001-SPMD005)",
        epilog="; ".join(f"{rule}: {text}" for rule, text in sorted(RULES.items())),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "examples", "tests"],
        help="files or directories to lint (default: src examples tests)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        findings = lint_paths(args.paths, root=Path.cwd())
    except FileNotFoundError as exc:
        parser.error(str(exc))
    for finding in findings:
        print(finding.render())
    print(f"spmd-lint: {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
