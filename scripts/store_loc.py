#!/usr/bin/env python
"""Count logical lines of Python source — the rule the ``repro.store`` shrink
is measured with (ROADMAP "finish the store shrink").

A line counts when it carries at least one token other than a comment, a
newline or indentation, and is not part of a docstring (the string that is
the first statement of a module, class or function).  Blank lines, comment
lines and documentation therefore never move the number; reformatting an
expression over more or fewer lines does, which is why a shrink is reported
per file beside the diff.

    python scripts/store_loc.py src/repro/store            # per file + total
    python scripts/store_loc.py src/repro/store --max 4230  # exit 1 above 4230
"""

import argparse
import ast
import pathlib
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def logical_lines(path):
    """Number of logical lines of the Python file at *path*."""
    with tokenize.open(path) as handle:
        source = handle.read()
    lines = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(True)).__next__):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", help="Python files or directories")
    parser.add_argument("--max", type=int, help="fail when the total exceeds this")
    args = parser.parse_args(argv)

    files = []
    for arg in args.paths:
        path = pathlib.Path(arg)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        count = logical_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    if args.max is not None and total > args.max:
        print(f"store_loc: {total} logical lines exceed --max {args.max}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
