"""AST-based SPMD collective-correctness linter.

The serving stack is an SPMD program over :mod:`repro.mpisim`: every rank
executes the same source, and correctness depends on all ranks reaching the
same collectives in the same order with compatible arguments.  The bugs this
linter targets today surface only as virtual-clock deadlock timeouts *after*
they hang a test; here they are reported at lint time with file:line, a
severity and a fix hint.

Rule catalog (see ``src/repro/analysis/README.md`` for worked examples):

* **SPMD001** — a collective call lexically inside a rank-conditional branch
  with no matching collective in the sibling branch(es): the classic
  divergent-collective deadlock.
* **SPMD002** — a literal point-to-point tag that is sent but never received
  (or received but never sent) within the same module.
* **SPMD003** — the same collective invoked with different literal ``root=``
  values across sibling branches of a rank-conditional.
* **SPMD004** — wall-clock usage (``time.time``/``time.sleep``/
  ``time.monotonic``/``time.perf_counter``/``datetime.now``) inside the
  virtual-clock codebase (``src/repro/``), outside the allowlist — the
  benchmark harness intentionally measures real CPU, everything else must
  charge the :class:`~repro.mpisim.clock.VirtualClock`.
* **SPMD005** — a rank-dependent early ``return``/``raise`` with collective
  calls later in the same function: the exiting rank skips a collective its
  peers will block in.  (This is a superset of the "between two collectives"
  pattern: an exit *before* the first collective is just as divergent.)

Heuristics and their limits: a call is "collective" when its receiver's
trailing identifier contains ``comm`` (``comm.bcast``, ``self.comm.gather``,
``server.comm.scatter``) and the attribute is one of the collective names —
so ``store.scan()`` never false-positives on :meth:`Communicator.scan`.  A
test is "rank-conditional" when it mentions ``.rank`` / ``.Get_rank()`` or a
local name assigned from such an expression (``is_root = comm.rank == 0``).
The analysis is lexical: collectives reached through helper calls are
invisible, which is the usual static-analysis trade (MPI-Checker makes the
same one) — the runtime lockstep verifier
(:mod:`repro.analysis.runtime`) covers the dynamic remainder.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .suppress import parse_suppressions, suppressed_rules

__all__ = [
    "RULES",
    "SEVERITIES",
    "Finding",
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_python_files",
]

#: rule id -> one-line description (the catalog the CLI prints)
RULES: Dict[str, str] = {
    "SPMD001": "collective inside a rank-conditional branch without a "
               "matching collective in the sibling branch",
    "SPMD002": "literal send/recv tag mismatch within a module",
    "SPMD003": "same collective with different literal root= values across "
               "sibling branches",
    "SPMD004": "wall-clock call inside the virtual-clock codebase",
    "SPMD005": "rank-dependent early return/raise that skips a later "
               "collective in the same function",
}

SEVERITIES: Dict[str, str] = {
    "SPMD001": "error",
    "SPMD002": "error",
    "SPMD003": "error",
    "SPMD004": "warning",
    "SPMD005": "error",
}

_HINTS: Dict[str, str] = {
    "SPMD001": "hoist the collective out of the branch, or give every "
               "sibling branch a matching call (root ranks may pass None)",
    "SPMD002": "use one shared tag constant for both ends, or receive with "
               "ANY_TAG",
    "SPMD003": "agree on one root across branches (pass it as a variable "
               "both branches share)",
    "SPMD004": "charge comm.clock / clock.compute() instead; real CPU "
               "measurement belongs in repro.bench or benchmarks/",
    "SPMD005": "make the exit collective: broadcast the error condition "
               "first so every rank raises/returns together",
}

#: collective method names on a communicator (Communicator's object API)
COLLECTIVE_OPS = frozenset(
    {
        "barrier",
        "bcast",
        "scatter",
        "gather",
        "allgather",
        "alltoall",
        "alltoallv",
        "reduce",
        "allreduce",
        "scan",
        "exscan",
    }
)

_SEND_OPS = frozenset({"send", "isend"})
_RECV_OPS = frozenset({"recv", "irecv", "probe"})

#: positional index of the tag argument per point-to-point op
_TAG_POSITION = {"send": 2, "isend": 2, "recv": 1, "irecv": 1, "probe": 1}

#: wall-clock attribute calls flagged by SPMD004 (``time.thread_time`` is
#: deliberately absent: it measures CPU effort and is the calibrated seam
#: VirtualClock.compute() is built on)
_WALL_CLOCK_TIME_ATTRS = frozenset(
    {"time", "sleep", "monotonic", "perf_counter", "monotonic_ns", "time_ns"}
)
_WALL_CLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: path fragments exempt from SPMD004 inside the virtual-clock tree: the
#: bench harness measures real CPU by design, and the clock itself owns the
#: one sanctioned use of the ``time`` module
_VCLOCK_ALLOWLIST = ("/bench/", "mpisim/clock.py")

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


@dataclass(frozen=True)
class Finding:
    """One rule violation, pinned to a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    context: str

    @property
    def severity(self) -> str:
        return SEVERITIES[self.rule]

    @property
    def hint(self) -> str:
        return _HINTS[self.rule]

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule} "
            f"[{self.severity}] {self.message}\n    hint: {self.hint}"
        )


# --------------------------------------------------------------------- #
# AST helpers
# --------------------------------------------------------------------- #
def _trailing_identifier(node: ast.AST) -> Optional[str]:
    """The last name segment of a receiver expression (``self.comm`` ->
    ``comm``, ``comm`` -> ``comm``, ``server.comm`` -> ``comm``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_comm_call(node: ast.AST, ops: frozenset) -> Optional[str]:
    """Return the op name when *node* is ``<...comm...>.<op>(...)``."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return None
    if node.func.attr not in ops:
        return None
    receiver = _trailing_identifier(node.func.value)
    if receiver is None or "comm" not in receiver.lower():
        return None
    return node.func.attr


def _walk_no_nested_scopes(nodes: Iterable[ast.AST]) -> Iterable[ast.AST]:
    """ast.walk over *nodes* without descending into nested function/class
    definitions (their collectives belong to their own scope's analysis)."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _SCOPE_NODES):
            continue
        stack.extend(ast.iter_child_nodes(node))


#: collectives whose result is identical on every rank — assignments from
#: them are *sanitizers* for the taint analysis: ``header = comm.bcast(...)``
#: yields a uniform value even when the arguments mention ``comm.rank``
#: (gather/scatter/scan/exscan results genuinely differ per rank and are
#: deliberately absent)
_UNIFORM_RESULT_OPS = frozenset(
    {"bcast", "allgather", "allreduce", "alltoall", "alltoallv"}
)


def _expr_is_rank_tainted(expr: ast.AST, tainted: Set[str]) -> bool:
    stack = [expr]
    while stack:
        node = stack.pop()
        if _is_comm_call(node, _UNIFORM_RESULT_OPS) is not None:
            continue  # uniform across ranks; arguments don't leak through
        if isinstance(node, ast.Attribute) and node.attr == "rank":
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "Get_rank"
        ):
            return True
        if isinstance(node, ast.Name) and node.id in tainted:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _rank_tainted_names(body: Sequence[ast.stmt]) -> Set[str]:
    """Local names holding rank-derived values (``rank = comm.rank``,
    ``is_root = comm.rank == 0``), found by a small fixpoint so chained
    aliases (``root_flag = is_root``) resolve regardless of order."""
    tainted: Set[str] = set()
    for _ in range(3):  # bodies are small; 3 passes cover realistic chains
        changed = False
        for node in _walk_no_nested_scopes(body):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            elif isinstance(node, ast.NamedExpr):
                targets, value = [node.target], node.value
            if value is None or not _expr_is_rank_tainted(value, tainted):
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id not in tainted:
                    tainted.add(target.id)
                    changed = True
        if not changed:
            break
    return tainted


def _flatten_if_chain(node: ast.If) -> Tuple[List[List[ast.stmt]], bool]:
    """Branches of an if/elif/else chain; second value tells whether the
    chain ends in an explicit ``else``."""
    branches: List[List[ast.stmt]] = []
    current: Union[ast.If, None] = node
    has_else = False
    while current is not None:
        branches.append(list(current.body))
        orelse = current.orelse
        if len(orelse) == 1 and isinstance(orelse[0], ast.If):
            current = orelse[0]
        else:
            if orelse:
                branches.append(list(orelse))
                has_else = True
            current = None
    return branches, has_else


def _chain_tests(node: ast.If) -> List[ast.expr]:
    """Every branch test of an if/elif chain (rank-conditionality of the
    chain is decided over all of them, not just the head's)."""
    tests: List[ast.expr] = []
    current: Optional[ast.If] = node
    while current is not None:
        tests.append(current.test)
        orelse = current.orelse
        current = orelse[0] if len(orelse) == 1 and isinstance(orelse[0], ast.If) \
            else None
    return tests


def _collectives_in(body: Sequence[ast.stmt]) -> List[Tuple[str, ast.Call]]:
    out = []
    for node in _walk_no_nested_scopes(body):
        op = _is_comm_call(node, COLLECTIVE_OPS)
        if op is not None:
            out.append((op, node))
    out.sort(key=lambda item: (item[1].lineno, item[1].col_offset))
    return out


def _literal_int(node: Optional[ast.AST], consts: Dict[str, int]) -> Optional[int]:
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return node.value
    if isinstance(node, ast.Name) and node.id in consts:
        return consts[node.id]
    return None


def _call_root(call: ast.Call, consts: Dict[str, int]) -> Tuple[bool, Optional[int]]:
    """(has_root_argument, literal_value_or_None) for a collective call."""
    for kw in call.keywords:
        if kw.arg == "root":
            return True, _literal_int(kw.value, consts)
    op = call.func.attr if isinstance(call.func, ast.Attribute) else ""
    positions = {"bcast": 1, "scatter": 1, "gather": 1, "reduce": 2}
    pos = positions.get(op)
    if pos is not None and len(call.args) > pos:
        return True, _literal_int(call.args[pos], consts)
    return False, None


# --------------------------------------------------------------------- #
# per-module analysis
# --------------------------------------------------------------------- #
class _ModuleLinter:
    def __init__(self, tree: ast.Module, path: str, vclock_scope: bool) -> None:
        self.tree = tree
        self.path = path
        self.vclock_scope = vclock_scope
        self.findings: List[Finding] = []
        self.module_consts = self._module_int_constants()
        self._wall_clock_names: Set[str] = self._from_time_imports()

    # ----------------------------------------------------------------- #
    def run(self) -> List[Finding]:
        self._lint_scope(self.tree.body, "<module>")
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._lint_scope(node.body, self._qualname(node))
        self._lint_tags()
        if self.vclock_scope:
            self._lint_wall_clock()
        self.findings.sort(key=lambda f: (f.line, f.col, f.rule))
        return self.findings

    def _qualname(self, func: ast.AST) -> str:
        # cheap qualifier: ClassName.method when directly nested in a class
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef) and func in node.body:
                return f"{node.name}.{func.name}"
        return getattr(func, "name", "<lambda>")

    def _add(self, rule: str, node: ast.AST, message: str, context: str) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
                context=context,
            )
        )

    def _module_int_constants(self) -> Dict[str, int]:
        consts: Dict[str, int] = {}
        for node in self.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, int) \
                    and not isinstance(node.value.value, bool):
                consts[node.targets[0].id] = node.value.value
        return consts

    def _from_time_imports(self) -> Set[str]:
        """Names bound by ``from time import sleep`` style imports that
        SPMD004 must recognise as bare calls."""
        names: Set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _WALL_CLOCK_TIME_ATTRS:
                        names.add(alias.asname or alias.name)
        return names

    # ----------------------------------------------------------------- #
    # SPMD001 / SPMD003 / SPMD005 — per function scope
    # ----------------------------------------------------------------- #
    def _lint_scope(self, body: Sequence[ast.stmt], context: str) -> None:
        tainted = _rank_tainted_names(body)
        all_ifs = [
            node for node in _walk_no_nested_scopes(body)
            if isinstance(node, ast.If)
        ]
        # an `elif` parses as an If nested in its parent's orelse: such
        # continuations are analysed as part of the parent's flattened
        # chain, not as chains of their own
        elif_continuations = {
            id(parent.orelse[0])
            for parent in all_ifs
            if len(parent.orelse) == 1 and isinstance(parent.orelse[0], ast.If)
        }
        rank_ifs = [
            node
            for node in all_ifs
            if id(node) not in elif_continuations
            and any(
                _expr_is_rank_tainted(test, tainted)
                for test in _chain_tests(node)
            )
        ]
        for if_node in rank_ifs:
            self._check_divergent_collectives(if_node, context)
            self._check_root_disagreement(if_node, context)
        if context != "<module>":
            self._check_early_exit(body, tainted, context)

    def _check_divergent_collectives(self, if_node: ast.If, context: str) -> None:
        branches, has_else = _flatten_if_chain(if_node)
        if not has_else:
            branches.append([])  # the implicit empty else
        per_branch = [_collectives_in(branch) for branch in branches]
        counts = [
            {op: sum(1 for o, _ in calls if o == op) for op, _ in calls}
            for calls in per_branch
        ]
        for idx, calls in enumerate(per_branch):
            seen: Dict[str, int] = {}
            for op, call in calls:
                seen[op] = seen.get(op, 0) + 1
                matched = all(
                    other.get(op, 0) >= seen[op]
                    for j, other in enumerate(counts)
                    if j != idx
                )
                if not matched:
                    self._add(
                        "SPMD001",
                        call,
                        f"collective {op}() inside a rank-conditional branch "
                        f"has no matching {op}() in the sibling branch — "
                        f"ranks taking the other path will not reach it",
                        context,
                    )

    def _check_root_disagreement(self, if_node: ast.If, context: str) -> None:
        branches, _ = _flatten_if_chain(if_node)
        roots_by_op: Dict[str, Dict[int, ast.Call]] = {}
        for branch in branches:
            for op, call in _collectives_in(branch):
                has_root, root = _call_root(call, self.module_consts)
                if not has_root or root is None:
                    continue
                seen = roots_by_op.setdefault(op, {})
                if any(other != root for other in seen):
                    other_root, other_call = next(
                        (r, c) for r, c in seen.items() if r != root
                    )
                    self._add(
                        "SPMD003",
                        call,
                        f"{op}() uses root={root} here but root={other_root} "
                        f"in a sibling branch (line {other_call.lineno}) — "
                        f"ranks would disagree on the root",
                        context,
                    )
                seen.setdefault(root, call)

    def _check_early_exit(self, body: Sequence[ast.stmt], tainted: Set[str],
                          context: str) -> None:
        collective_lines = [
            call.lineno for _, call in _collectives_in(body)
        ]
        if not collective_lines:
            return
        last_collective = max(collective_lines)

        def visit(nodes: Sequence[ast.stmt], in_rank_branch: bool) -> None:
            for node in nodes:
                if isinstance(node, _SCOPE_NODES):
                    continue
                if isinstance(node, (ast.Return, ast.Raise)) and in_rank_branch:
                    if node.lineno < last_collective:
                        kind = "return" if isinstance(node, ast.Return) else "raise"
                        self._add(
                            "SPMD005",
                            node,
                            f"rank-dependent {kind} exits before the "
                            f"collective at line "
                            f"{min(l for l in collective_lines if l > node.lineno)}"
                            f" — peer ranks will block in it",
                            context,
                        )
                    continue
                if isinstance(node, ast.If):
                    rank_if = _expr_is_rank_tainted(node.test, tainted)
                    visit(node.body, in_rank_branch or rank_if)
                    visit(node.orelse, in_rank_branch or rank_if)
                    continue
                for child_body in (
                    getattr(node, "body", None),
                    getattr(node, "orelse", None),
                    getattr(node, "finalbody", None),
                ):
                    if child_body:
                        visit(child_body, in_rank_branch)
                for handler in getattr(node, "handlers", []) or []:
                    visit(handler.body, in_rank_branch)
                for item_body in getattr(node, "items", []) or []:
                    pass  # `with` bodies handled by the body attr above

        visit(body, False)

    # ----------------------------------------------------------------- #
    # SPMD002 — module-wide literal tag matching
    # ----------------------------------------------------------------- #
    def _tag_argument(self, call: ast.Call, op: str) -> Tuple[str, Optional[int], bool]:
        """(kind, literal, present) where kind is 'literal'/'dynamic'/
        'wildcard' for the tag argument of a p2p call."""
        node: Optional[ast.AST] = None
        keyword = {
            "sendrecv_send": "sendtag",
            "sendrecv_recv": "recvtag",
        }.get(op, "tag")
        for kw in call.keywords:
            if kw.arg == keyword:
                node = kw.value
                break
        if node is None:
            pos = {"sendrecv_send": 2, "sendrecv_recv": 4}.get(
                op, _TAG_POSITION.get(op)
            )
            if pos is not None and len(call.args) > pos:
                node = call.args[pos]
        if node is None:
            # defaulted tag: 0 on the send side, ANY_TAG on the recv side
            return ("literal", 0, False) if op in _SEND_OPS or op == "sendrecv_send" \
                else ("wildcard", None, False)
        if isinstance(node, (ast.Name, ast.Attribute)) and \
                _trailing_identifier(node) == "ANY_TAG":
            return "wildcard", None, True
        literal = _literal_int(node, self.module_consts)
        if literal is not None:
            return "literal", literal, True
        return "dynamic", None, True

    def _lint_tags(self) -> None:
        sends: List[Tuple[int, ast.Call, str]] = []   # (tag, call, kind)
        recvs: List[Tuple[Optional[int], ast.Call, str]] = []
        send_dynamic = recv_dynamic = recv_wildcard = False
        for node in ast.walk(self.tree):
            op = _is_comm_call(node, _SEND_OPS | _RECV_OPS | {"sendrecv"})
            if op is None:
                continue
            sides = [op]
            if op == "sendrecv":
                sides = ["sendrecv_send", "sendrecv_recv"]
            for side in sides:
                kind, literal, _ = self._tag_argument(node, side)
                is_send = side in _SEND_OPS or side == "sendrecv_send"
                if kind == "dynamic":
                    if is_send:
                        send_dynamic = True
                    else:
                        recv_dynamic = True
                elif kind == "wildcard":
                    recv_wildcard = True
                elif is_send:
                    sends.append((literal, node, side))
                else:
                    recvs.append((literal, node, side))
        if not sends and not recvs:
            return
        sent_tags = {tag for tag, _, _ in sends}
        recv_tags = {tag for tag, _, _ in recvs}
        context = "<module>"
        if not recv_dynamic and not recv_wildcard:
            for tag, call, _ in sends:
                if tag not in recv_tags:
                    self._add(
                        "SPMD002",
                        call,
                        f"message sent with literal tag {tag} is never "
                        f"received with that tag in this module "
                        f"(received tags: {sorted(recv_tags) or 'none'})",
                        context,
                    )
        if not send_dynamic:
            for tag, call, _ in recvs:
                if tag not in sent_tags:
                    self._add(
                        "SPMD002",
                        call,
                        f"receive with literal tag {tag} has no matching "
                        f"send with that tag in this module "
                        f"(sent tags: {sorted(sent_tags) or 'none'})",
                        context,
                    )

    # ----------------------------------------------------------------- #
    # SPMD004 — wall-clock leaks
    # ----------------------------------------------------------------- #
    def _lint_wall_clock(self) -> None:
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name: Optional[str] = None
            if isinstance(func, ast.Attribute):
                base = _trailing_identifier(func.value)
                if base == "time" and func.attr in _WALL_CLOCK_TIME_ATTRS:
                    name = f"time.{func.attr}"
                elif base in ("datetime", "date") and \
                        func.attr in _WALL_CLOCK_DATETIME_ATTRS:
                    name = f"{base}.{func.attr}"
            elif isinstance(func, ast.Name) and func.id in self._wall_clock_names:
                name = f"time.{func.id}"
            if name is not None:
                self._add(
                    "SPMD004",
                    node,
                    f"{name}() reads the wall clock inside the virtual-clock "
                    f"codebase — simulated timings must come from the "
                    f"VirtualClock",
                    "<module>",
                )


# --------------------------------------------------------------------- #
# public entry points
# --------------------------------------------------------------------- #
def _in_vclock_scope(path: str) -> bool:
    norm = path.replace("\\", "/")
    if "src/repro/" not in norm:
        return False
    return not any(fragment in norm for fragment in _VCLOCK_ALLOWLIST)


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one module's *source*; *path* is used for reporting and for
    deciding whether SPMD004 applies.  Reasoned inline suppressions are
    applied."""
    tree = ast.parse(source, filename=path)
    findings = _ModuleLinter(tree, path, _in_vclock_scope(path)).run()
    silenced = suppressed_rules(parse_suppressions(source))
    return [
        f
        for f in findings
        if not (
            f.line in silenced
            and (f.rule in silenced[f.line] or "*" in silenced[f.line])
        )
    ]


def lint_file(path: Union[str, Path], root: Optional[Path] = None) -> List[Finding]:
    """Lint one file; paths in findings are reported relative to *root*."""
    path = Path(path)
    rel = path
    if root is not None:
        try:
            rel = path.resolve().relative_to(root.resolve())
        except ValueError:
            rel = path
    return lint_source(
        path.read_text(encoding="utf-8"), str(rel).replace("\\", "/")
    )


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Every ``*.py`` file under *paths*; an entry that is neither a
    directory nor an existing ``.py`` file raises :class:`FileNotFoundError`
    (a mistyped path must not lint nothing and pass)."""
    out: List[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            out.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py" and p.is_file():
            out.append(p)
        else:
            raise FileNotFoundError(f"{entry}: no such directory or .py file")
    return out


def lint_paths(
    paths: Sequence[Union[str, Path]], root: Optional[Path] = None
) -> List[Finding]:
    """Lint every ``*.py`` file under *paths* (files or directories)."""
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, root=root))
    return findings
