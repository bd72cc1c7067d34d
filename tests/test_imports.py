"""No module imports a name it never uses.

CI runs pyflakes over ``src/`` only; this test holds every module of
``src/``, ``tests/``, ``benchmarks/``, ``examples/`` and ``scripts/`` to the
unused-import half of that rule with nothing but :mod:`ast`.  An imported
name counts as used when the module loads it anywhere (an attribute chain
loads its root), names it in ``__all__``, or names it in a string
annotation.  A package ``__init__.py`` re-exports what it imports and is
exempt, and so is an import line marked ``# noqa`` (an import kept for its
side effect).
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples", "scripts")
MODULES = sorted(
    path
    for top in SCANNED
    for path in (ROOT / top).rglob("*.py")
    if path.name != "__init__.py"
)


def _annotation_names(node):
    """Names a (possibly quoted) annotation loads."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                yield from _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return used


def unused_imports(path):
    """``(line, name)`` of every name *path* imports and never uses."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        marked = any("# noqa" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1))
        if marked:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            imported.append((node.lineno, bound))
    used = _used_names(tree)
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == []


def test_the_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import List, Optional\n"
        "import json as codec\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [codec.dumps(x)]\n"
    )
    assert unused_imports(module) == [(1, "os")]
