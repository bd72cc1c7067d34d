#!/usr/bin/env python
"""Caller census: a public name, member or keyword that only its own tests
reach is dead.

Three things under the given paths must be *reached* from some Python file
under ``src/``, ``perf/``, ``examples/``, ``scripts/`` or ``benchmarks/``
(relative to the working directory):

* every name in a module's ``__all__``: something mentions it as a name, an
  attribute, an import or a part of the qualified name in a ``module:name``
  string literal (the form ``perf/spans.py`` wraps targets by; any other
  string, such as a name in an error message, is prose and never counts);
* every public method or property of a module-level class: something
  mentions it as an attribute (``x.name``, or ``Class.name`` in a
  ``module:name`` string);
* every defaulted keyword of a public function, method or ``__init__``:
  some call of a function of that name (of the class, for ``__init__``)
  passes it by name or by position, or spreads ``*args``/``**kwargs``
  into it.

A mention or call never counts inside the definition it would reach, in
its module's ``__all__`` or in a package ``__init__`` re-export (its
imports and its ``__all__``).  Comments, docstrings and type annotations
never count, and neither does a mention or call inside a class method that
nothing outside the method names (the only caller of ``Gauge`` was
``MetricsRegistry.gauge``, which only tests called) — so a helper that only
a reached sibling method calls is reached.  What nothing reaches must be
deleted (a keyword: folded into the constant it always is) or listed in
:data:`KEEP` with the rule that keeps it; a :data:`KEEP` entry that is
reached, or that names nothing any more, is stale.  Either finding exits 1.

    python scripts/census.py src/repro
"""

import argparse
import ast
import collections
import math
import pathlib
import re
import sys

SEARCH_ROOTS = ("src", "perf", "examples", "scripts", "benchmarks")

#: why an unreached name stays
RULES = {
    "contribution": "one of the paper's contributions (PAPER.md (i)-(iii))",
    "MPI surface": "MPI or MPI-IO surface pinned by tests/mpisim or tests/io",
    "reference oracle": "imported by a tests/**/_*_reference.py oracle",
    "test helper": "used by other tests as a helper rather than tested",
    "roadmap": "needed by the ROADMAP aim or item, or the PAPER.md sentence, it cites",
}

#: ``module:name``, ``module:Class.member`` or ``module:function(keyword)``
#: (``module:Class(keyword)`` for ``__init__``) -> ``(rule, reason)``, for
#: everything that is kept unreached
KEEP = {
    "repro.core.grid_partition:partition_geometries":
        ("contribution", "grid partition + exchange of one layer (ii-iii)"),
    "repro.core.grid_partition:partition_geometries(config)":
        ("contribution", "the grid (cell count, mapping) of that partition (iii)"),
    **{
        f"repro.core.{name}(exchange_window)":
            ("contribution", "the sliding-window all-to-all exchange (iii)")
        for name in (
            "grid_partition:partition_geometries", "join:SpatialJoin", "indexing:DistributedIndex",
        )
    },
    "repro.core.framework:SpatialComputation.run_from_store":
        ("roadmap", "PAPER.md: the store serves repeated traffic without re-running the pipeline"),
    "repro.core.framework:SpatialComputation.run_from_store(right_path)":
        ("roadmap", "PAPER.md, same sentence: the second layer of a store-backed join"),
    "repro.store.datastore:SpatialDataStore.explain":
        ("roadmap", "observability aim and item 9: where one query's time went"),
    **{
        f"repro.store.{name}": (
            "roadmap",
            "correctness aim: fault-tolerant serving, pinned in tests/store/test_public_surface.py",
        )
        for name in (
            "writer:bulk_load(read_replicas)",
            "sharded:DistributedStoreServer.range_query_batch(partial_ok)",
            "sharded:DistributedStoreServer.range_query_batch(deadline)",
            "frontend:AsyncStoreFrontend.serve(partial_ok)",
            "frontend:AsyncStoreFrontend.serve(deadline)",
        )
    },
    "repro.core.noncontig:read_fixed_records_roundrobin":
        ("contribution", "the fixed-record non-contiguous view of Figure 15"),
    **{
        f"repro.core.spatial_ops:{name}": ("contribution", "spatial reduce operators (i)")
        for name in (
            "MPI_MAX_LINE", "MPI_MAX_POINT", "MPI_MAX_RECT",
            "MPI_MIN_LINE", "MPI_MIN_POINT", "MPI_MIN_RECT", "geometry_extent_op",
        )
    },
    **{
        f"repro.core.spatial_types:{name}":
            ("contribution", "spatial datatypes with their pack/unpack functions (i)")
        for name in (
            "MPI_RECT_STRUCT", "make_fixed_polygon_type", "make_multi_line_type",
            "make_multi_point_type", "pack_points", "pack_rects", "pack_lines",
            "unpack_lines", "unpack_points", "unpack_rects",
        )
    },
    "repro.datasets.binary:read_mbr_file":
        ("contribution", "the struct-typed MBR records of Figures 12 and 15, read back serially"),
    "repro.datasets.binary:read_mbr_file(precision)":
        ("contribution", "in either precision write_mbr_file writes (ii)"),
    **{
        f"repro.mpisim.{name}": ("MPI surface", "the mpi4py name of an MPI call (rule 3)")
        for name in (
            "comm:Communicator.Get_rank", "comm:Communicator.split(key)",
            "comm:Communicator.dup", "comm:Communicator.recv(status)",
            "comm:Communicator.sendrecv", "comm:Communicator.sendrecv(sendtag)",
            "comm:Communicator.sendrecv(source)", "comm:Communicator.sendrecv(recvtag)",
            "comm:Communicator.sendrecv(status)",
            "comm:Communicator.isend", "comm:Communicator.isend(tag)",
            "comm:Communicator.irecv", "comm:Communicator.irecv(source)",
            "comm:Communicator.irecv(tag)",
            "comm:Communicator.probe", "comm:Communicator.probe(source)",
            "comm:Communicator.probe(tag)",
            "status:Status.Get_source", "status:Status.Get_tag",
            "status:Status.Get_count", "status:Status.Get_count(datatype)",
            "datatypes:Datatype.Commit", "datatypes:Datatype.Free",
        )
    },
    **{
        f"repro.mpisim.comm:Communicator.{name}": (
            "reference oracle",
            "the retired collective serving loop, tests/store/_collective_serve_reference.py",
        )
        for name in ("scatter", "scatter(root)")
    },
    "repro.mpisim.comm:Communicator.exscan":
        ("roadmap", "item 7: global record ids from an exclusive scan of per-rank counts"),
    "repro.mpisim.comm:Communicator.attach_fault_hook":
        ("test helper", "RankFaultInjector attaches through it (rule 5)"),
    **{
        f"repro.io.file:File.{name}": ("MPI surface", "the mpi4py name of an MPI-IO call (rule 3)")
        for name in ("Open(mode)", "Seek", "Get_position", "write_at", "write_at_all", "write_all")
    },
    "repro.mpisim.datatypes:MPI_FLOAT": ("MPI surface", "a predefined MPI datatype"),
    "repro.mpisim.datatypes:MPI_INT": ("MPI surface", "a predefined MPI datatype"),
    "repro.mpisim.ops:MAX": ("MPI surface", "a predefined MPI reduce operator"),
    "repro.mpisim.ops:LOR": ("test helper", "the logical-or reduce of the mpisim tests"),
    "repro.faults:RankFaultInjector":
        ("test helper", "injects rank faults into the fault-tolerance tests"),
    "repro.faults:RankFaultInjector(after_calls)":
        ("test helper", "how many calls the faulted rank survives"),
    "repro.faults:FaultyFilesystem.add_rule":
        ("test helper", "the fault tests arm their read faults with it"),
    "repro.core.parsers:GeometryParser.parse_buffer":
        ("test helper", "the tests parse whole files with it for their expected side"),
    "repro.index.rtree:STRtree(node_capacity)":
        ("test helper", "the index tests build deep trees from a few items with it"),
    "repro.index.rtree:STRtree.bounds":
        ("test helper", "the index round-trip tests compare trees by it"),
    "repro.geometry.linestring:LineString.segments":
        ("reference oracle", "tests/geometry/_predicates_reference.py"),
    "repro.geometry.algorithms:segments_cross_ring":
        ("reference oracle", "tests/geometry/_predicates_reference.py"),
    "repro.store.scheduler:NO_RETRY":
        ("test helper", "the retry-free policy of the fault tests"),
}

#: ``module:qualname`` — the one string form that names a target
_TARGET = re.compile(r"[A-Za-z_][\w.]*:([A-Za-z_][\w.]*)")


class _Call(collections.namedtuple("_Call", "callees line method positional keywords spread")):
    """One call: the names it may call, how many arguments it passes by
    position (``inf`` with ``*args``), the keyword names it passes, and
    whether it spreads ``**kwargs``."""

    @classmethod
    def of(cls, node, method, klass):
        func = node.func
        if isinstance(func, ast.Name):
            callees = {klass[0]} if func.id == "cls" and klass else {func.id}
        elif isinstance(func, ast.Attribute):
            callees = {func.attr}
            if func.attr == "__init__" and klass and isinstance(func.value, ast.Call) \
                    and getattr(func.value.func, "id", None) == "super":
                callees = set(klass[1])  # super().__init__: the bases' __init__
        else:
            callees = set()
        positional = sum(not isinstance(a, ast.Starred) for a in node.args)
        if any(isinstance(a, ast.Starred) for a in node.args):
            positional = math.inf
        keywords = {k.arg for k in node.keywords if k.arg}
        spread = any(k.arg is None for k in node.keywords)
        return cls(callees, node.lineno, method, positional, keywords, spread)


def _module_name(path):
    """Dotted module name of *path*, walking up through package dirs."""
    parts = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts)


def _all_names(tree):
    """``(names, node)`` of a module-level ``__all__`` list, or ``([], None)``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            try:
                return list(ast.literal_eval(node.value)), node
            except ValueError:
                break
    return [], None


def _span(node):
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return range(start, node.end_lineno + 1)


def _definitions(tree):
    """Top-level definition spans of a module: name -> [line ranges]."""
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            spans.setdefault(node.name, []).append(_span(node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        spans.setdefault(name.id, []).append(_span(node))
    return spans


def _functions(tree):
    """``(qualname, callee, function node, bound)`` of every public
    module-level function and every public method or ``__init__`` of a
    module-level class; *callee* is the name a call uses (the class, for
    ``__init__``) and *bound* whether the first parameter is ``self`` or
    ``cls``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and not node.name.startswith("_"):
            yield node.name, node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if member.name == "__init__":
                    yield node.name, node.name, member, True
                elif not member.name.startswith("_"):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in member.decorator_list)
                    yield f"{node.name}.{member.name}", member.name, member, not static


def _heirs(trees):
    """Class name -> the names a call of which runs its ``__init__``: the
    class and every subclass that inherits the method (through first bases,
    as the MRO finds it)."""
    classes = {
        node.name: node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)
    }

    def owner(name):
        seen = set()
        while name in classes and name not in seen and classes[name].bases and not any(
            isinstance(m, ast.FunctionDef) and m.name == "__init__" for m in classes[name].body
        ):
            seen.add(name)
            base = classes[name].bases[0]
            name = getattr(base, "id", getattr(base, "attr", None))
        return name

    heirs = {}
    for name in classes:
        heirs.setdefault(owner(name), set()).add(name)
    for name, group in heirs.items():
        group.add(name)
    return heirs


def _keywords(function, bound):
    """``(name, position)`` of every defaulted parameter; *position* is its
    index among the positional parameters a call fills (None for a
    keyword-only one)."""
    args = function.args
    positional = (args.posonlyargs + args.args)[1 if bound else 0:]
    for index, arg in enumerate(positional):
        if index >= len(positional) - len(args.defaults):
            yield arg.arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _mentions(path, tree):
    """``(found, calls)`` of one file.

    *found* maps an identifier to ``[(line, method, attribute)]``, one entry
    per mention: *method* is ``(name, lines)`` of the class method the
    mention sits in, or None, and *attribute* says whether it names a member
    (``x.name``, or ``Class.name`` in a ``module:name`` string).  *calls* is
    a list of :class:`_Call`.  A package ``__init__``'s imports and
    ``__all__`` are re-exports, not mentions; docstrings, comments and type
    annotations are never mentions."""
    skip = set()
    if path.name == "__init__.py":
        _, all_node = _all_names(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) or node is all_node:
                skip.add(node)
    found, calls = {}, []
    stack = [(n, None, None) for n in tree.body if n not in skip]
    while stack:
        node, method, klass = stack.pop()
        names, attribute = (), False
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names, attribute = [node.attr], True
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
            if isinstance(node, ast.ImportFrom) and node.module:
                names.append(node.module.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            target = _TARGET.fullmatch(node.value)
            names, attribute = (target.group(1).split(".") if target else ()), True
        elif isinstance(node, ast.Call):
            calls.append(_Call.of(node, method, klass))
        for name in names:
            found.setdefault(name, []).append((node.lineno, method, attribute))
        if isinstance(node, ast.ClassDef):
            klass = (node.name, [getattr(b, "id", getattr(b, "attr", "")) for b in node.bases])
        annotations = {getattr(node, "annotation", None), getattr(node, "returns", None)}
        for child in ast.iter_child_nodes(node):
            if child in annotations:
                continue
            if isinstance(node, ast.ClassDef) and method is None and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and not child.name.startswith("__"):
                stack.append((child, (child.name, _span(child)), klass))
            else:
                stack.append((child, method, klass))
    return found, calls


def census(paths):
    """``(unreached, stale)``: sorted key lists (see :data:`KEEP`)."""
    scanned = {}
    for arg in paths:
        path = pathlib.Path(arg)
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            scanned[file.resolve()] = _module_name(file.resolve())

    mentions, calls = {}, {}
    for root in SEARCH_ROOTS:
        for file in sorted(pathlib.Path(root).rglob("*.py")):
            if file.resolve() != pathlib.Path(__file__).resolve():  # not KEEP
                tree = ast.parse(file.read_text(encoding="utf-8"), str(file))
                mentions[file.resolve()], calls[file.resolve()] = _mentions(file, tree)

    def outside(other, line, file, own):
        return other != file or line not in own

    def live(method, other):
        """Whether a mention or call in *method* of file *other* counts:
        outside a class method, or in one that something outside it names."""
        return method is None or mentioned(method[0], other, method[1], False)

    def mentioned(name, file, own, gated, attribute=False):
        """Whether *name* is mentioned outside the lines *own* of *file*
        (as an attribute, when *attribute*); when *gated*, a mention inside
        a method counts only if that method is :func:`live`."""
        return any(
            outside(other, line, file, own) and (is_attr or not attribute)
            and (not gated or live(method, other))
            for other, found in mentions.items()
            for line, method, is_attr in found.get(name, ())
        )

    def passed(callee, keyword, position, file, own):
        """Whether a call of *callee* passes *keyword* (at *position*)."""
        return any(
            callee in call.callees and outside(other, call.line, file, own)
            and (call.spread or keyword in call.keywords
                 or (position is not None and call.positional > position))
            and live(call.method, other)
            for other, found in calls.items()
            for call in found
        )

    trees = {file: ast.parse(file.read_text(encoding="utf-8"), str(file)) for file in scanned}
    heirs = _heirs(trees.values())
    public = {}
    for file, module in scanned.items():
        tree = trees[file]
        names, all_node = _all_names(tree)
        defined = _definitions(tree)
        for name in names:
            if name in defined:  # else a re-export: its own module decides
                own = {line for span in defined[name] + [_span(all_node)] for line in span}
                public[f"{module}:{name}"] = mentioned(name, file, own, True)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                            and not member.name.startswith("_"):
                        public[f"{module}:{node.name}.{member.name}"] = mentioned(
                            member.name, file, _span(member), True, attribute=True
                        )
        for qualname, callee, function, bound in _functions(tree):
            for keyword, position in _keywords(function, bound):
                public[f"{module}:{qualname}({keyword})"] = any(
                    passed(name, keyword, position, file, _span(function))
                    for name in heirs.get(callee, {callee})
                )

    modules = set(scanned.values())
    unreached = sorted(key for key, hit in public.items() if not hit and key not in KEEP)
    stale = sorted(
        key for key in KEEP if key.partition(":")[0] in modules and public.get(key, True)
    )
    return unreached, stale


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", help="Python files or package directories")
    args = parser.parse_args(argv)

    bad_keep = sorted(
        f"{key}: keep rule {rule!r} is not one of {sorted(RULES)}" if rule not in RULES
        else f"{key}: keep entry gives no reason"
        for key, (rule, reason) in KEEP.items() if rule not in RULES or not reason
    )
    unreached, stale = census(args.paths)
    for key in unreached:
        what = "no caller passes it" if key.endswith(")") else "nothing outside its definition reaches it"
        print(f"{key}: {what} (tests do not count)")
    for key in stale:
        print(f"{key}: stale keep entry (reached, or no longer defined)")
    for line in bad_keep:
        print(line)
    return 1 if unreached or stale or bad_keep else 0


if __name__ == "__main__":
    sys.exit(main())
