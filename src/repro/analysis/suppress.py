"""Inline suppressions for the SPMD linter.

A finding is silenced by a ``# spmd: ignore[RULE] reason`` comment either on
the flagged line itself or on its own line directly above it::

    comm.bcast(manifest, root=0)  # spmd: ignore[SPMD001] matched in caller

    # spmd: ignore[SPMD005] abort machinery converts this into MPIAbortError
    raise ValueError("rank 0 must supply the batch")

Several rules may share one comment (``ignore[SPMD001,SPMD003]``) and
``ignore[*]`` silences every rule on the line.  The reason text is required:
a suppression with no reason silences nothing, so its finding still fails
the gate — an unexplained waiver is how intentional patterns rot into
unexplained ones.  Only real comments count: the same text inside a string
literal is not a suppression.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, List, NamedTuple, Set

__all__ = ["Suppression", "parse_suppressions", "suppressed_rules"]

#: ``# spmd: ignore[SPMD001]``, ``# spmd: ignore[SPMD001,SPMD002] reason...``
_SUPPRESS_RE = re.compile(
    r"#\s*spmd:\s*ignore\[([A-Za-z0-9_*,\s]+)\]\s*(.*)$"
)


class Suppression(NamedTuple):
    line: int
    rules: Set[str]
    reason: str
    #: whether the comment sits on a line of its own (then it also covers
    #: the next line) or trails a statement (then it covers only that line)
    standalone: bool


def parse_suppressions(source: str) -> List[Suppression]:
    """Extract every ``# spmd: ignore[...]`` comment token from *source*."""
    out: List[Suppression] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match is None:
            continue
        rules = {
            token.strip().upper()
            for token in match.group(1).split(",")
            if token.strip()
        }
        lineno, col = tok.start
        out.append(
            Suppression(
                line=lineno,
                rules=rules,
                reason=match.group(2).strip(),
                standalone=tok.line[:col].strip() == "",
            )
        )
    return out


def suppressed_rules(suppressions: List[Suppression]) -> Dict[int, Set[str]]:
    """Map ``line -> set of silenced rules`` ("*" silences every rule).

    A trailing comment covers its own line; a standalone comment covers its
    own line *and* the next one, so a suppression can sit directly above a
    long statement without re-flowing it.  A suppression with no reason
    covers nothing.
    """
    by_line: Dict[int, Set[str]] = {}
    for sup in suppressions:
        if not sup.reason:
            continue
        lines = (sup.line, sup.line + 1) if sup.standalone else (sup.line,)
        for line in lines:
            by_line.setdefault(line, set()).update(sup.rules)
    return by_line
