#!/usr/bin/env python
"""Caller census: a public name that only its own tests reach is dead.

Every name listed in a module's ``__all__`` under the given paths must be
*reached*: some Python file under ``src/``, ``perf/``, ``examples/``,
``scripts/`` or ``benchmarks/`` (relative to the working directory) mentions
it as a name, an attribute, an import or an identifier inside a string
literal (the form ``perf/spans.py`` wraps targets by), outside three places:

* its own definition,
* its module's ``__all__``,
* a package ``__init__`` re-export (its imports and its ``__all__``).

Comments, docstrings and type annotations never count, and neither does a
mention inside a class method that nothing outside the method names (the
only caller of ``Gauge`` was ``MetricsRegistry.gauge``, which only tests
called).  A name that nothing reaches must be deleted or listed in
:data:`KEEP` with the rule that keeps it; a :data:`KEEP` entry that is
reached, or that names nothing any more, is stale.  Either finding exits 1.
Methods, keywords and names missing from ``__all__`` are not reported;
those stay a hand-checked part of the census.

    python scripts/census.py src/repro --exclude bench
"""

import argparse
import ast
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
}

#: ``module:name`` -> rule, for every public name that is kept unreached
KEEP = {
    # grid partition + exchange of one layer (ii-iii)
    "repro.core.grid_partition:partition_geometries": "contribution",
    # the fixed-record non-contiguous view of Figure 15
    "repro.core.noncontig:read_fixed_records_roundrobin": "contribution",
    # spatial reduce operators and datatypes with their pack/unpack functions
    "repro.core.spatial_ops:MPI_MAX_LINE": "contribution",
    "repro.core.spatial_ops:MPI_MAX_POINT": "contribution",
    "repro.core.spatial_ops:MPI_MAX_RECT": "contribution",
    "repro.core.spatial_ops:MPI_MIN_LINE": "contribution",
    "repro.core.spatial_ops:MPI_MIN_POINT": "contribution",
    "repro.core.spatial_ops:MPI_MIN_RECT": "contribution",
    "repro.core.spatial_ops:geometry_extent_op": "contribution",
    "repro.core.spatial_types:MPI_RECT_STRUCT": "contribution",
    "repro.core.spatial_types:make_fixed_polygon_type": "contribution",
    "repro.core.spatial_types:make_multi_line_type": "contribution",
    "repro.core.spatial_types:make_multi_point_type": "contribution",
    "repro.core.spatial_types:pack_points": "contribution",
    "repro.core.spatial_types:pack_rects": "contribution",
    "repro.core.spatial_types:pack_lines": "contribution",
    "repro.core.spatial_types:unpack_lines": "contribution",
    "repro.core.spatial_types:unpack_points": "contribution",
    "repro.core.spatial_types:unpack_rects": "contribution",
    # the struct-typed MBR records of Figures 12 and 15, read back serially
    "repro.datasets.binary:read_mbr_file": "contribution",
    "repro.mpisim.datatypes:MPI_FLOAT": "MPI surface",
    "repro.mpisim.datatypes:MPI_INT": "MPI surface",
    "repro.mpisim.ops:MAX": "MPI surface",
    "repro.mpisim.ops:LOR": "test helper",
    "repro.faults:RankFaultInjector": "test helper",
    "repro.geometry.algorithms:segments_cross_ring": "reference oracle",
    "repro.store.format:RecordRef": "reference oracle",
    # the retired v1 page layout, built by the upgrade tests' fixture
    "repro.store.format:encode_page": "test helper",
    "repro.store.format:encode_record": "test helper",
    "repro.store.scheduler:NO_RETRY": "test helper",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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
    return range(node.lineno, node.end_lineno + 1)


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


def _mentions(path, tree):
    """``identifier -> [(line, method)]`` of every mention in one file.

    *method* is ``(name, lines)`` of the class method the mention sits in,
    or None.  A package ``__init__``'s imports and ``__all__`` are
    re-exports, not mentions; docstrings, comments and type annotations are
    never mentions."""
    skip = set()
    if path.name == "__init__.py":
        _, all_node = _all_names(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) or node is all_node:
                skip.add(node)
    found = {}
    stack = [(n, None) for n in tree.body if n not in skip]
    while stack:
        node, method = stack.pop()
        names = ()
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
            if isinstance(node, ast.ImportFrom) and node.module:
                names.append(node.module.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = _IDENT.findall(node.value)
        for name in names:
            found.setdefault(name, []).append((node.lineno, method))
        annotations = {getattr(node, "annotation", None), getattr(node, "returns", None)}
        for child in ast.iter_child_nodes(node):
            if child in annotations:
                continue
            if isinstance(node, ast.ClassDef) and method is None and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and not child.name.startswith("__"):
                stack.append((child, (child.name, _span(child))))
            else:
                stack.append((child, method))
    return found


def census(paths, exclude=()):
    """``(unreached, stale)``: sorted ``module:name`` lists."""
    scanned = {}
    for arg in paths:
        path = pathlib.Path(arg)
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            module = _module_name(file.resolve())
            if not set(module.split(".")) & set(exclude):
                scanned[file.resolve()] = module

    mentions = {}
    for root in SEARCH_ROOTS:
        for file in sorted(pathlib.Path(root).rglob("*.py")):
            if file.resolve() != pathlib.Path(__file__).resolve():  # not KEEP
                tree = ast.parse(file.read_text(encoding="utf-8"), str(file))
                mentions[file.resolve()] = _mentions(file, tree)

    def mentioned(name, file, own, gated):
        """Whether *name* is mentioned outside the lines *own* of *file*;
        when *gated*, a mention inside a method counts only if something
        outside that method mentions the method's name."""
        return any(
            (other != file or line not in own)
            and (not gated or method is None or mentioned(method[0], other, method[1], False))
            for other, found in mentions.items()
            for line, method in found.get(name, ())
        )

    public = {}
    for file, module in scanned.items():
        tree = ast.parse(file.read_text(encoding="utf-8"), str(file))
        names, all_node = _all_names(tree)
        defined = _definitions(tree)
        for name in names:
            if name in defined:  # else a re-export: its own module decides
                own = {line for span in defined[name] + [_span(all_node)] for line in span}
                public[f"{module}:{name}"] = mentioned(name, file, own, True)

    modules = set(scanned.values())
    unreached = sorted(key for key, hit in public.items() if not hit and key not in KEEP)
    stale = sorted(
        key for key in KEEP if key.partition(":")[0] in modules and public.get(key, True)
    )
    return unreached, stale


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", help="Python files or package directories")
    parser.add_argument("--exclude", action="append", default=[], metavar="PKG",
                        help="skip modules inside a package of this name")
    args = parser.parse_args(argv)

    bad_rules = sorted(key for key, rule in KEEP.items() if rule not in RULES)
    unreached, stale = census(args.paths, args.exclude)
    for key in unreached:
        print(f"{key}: nothing outside its definition reaches it (tests do not count)")
    for key in stale:
        print(f"{key}: stale keep entry (reached, or no longer in __all__)")
    for key in bad_rules:
        print(f"{key}: keep rule {KEEP[key]!r} is not one of {sorted(RULES)}")
    return 1 if unreached or stale or bad_rules else 0


if __name__ == "__main__":
    sys.exit(main())
