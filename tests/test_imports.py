"""Static checks on the package source: every module uses what it imports,
and every module-level private name is referenced somewhere in the package.

Parsed with the standard library's `ast`, so no linter has to be installed.
`__init__.py` is exempt from the import check (its imports are re-exports),
and so is `from __future__ import annotations`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "srtg"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _private_definitions(tree):
    """Module-level `_name` functions, classes and assigned constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names)


def test_every_private_module_name_is_referenced():
    # the tests do not count: a helper only they call is dead package code
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.rglob("*.py"))}
    referenced = {name for tree in trees.values() for name in _references(tree)}
    unreferenced = sorted(f"{path.relative_to(SRC).as_posix()}:{name}"
                          for path, tree in trees.items()
                          for name in _private_definitions(tree) if name not in referenced)
    assert not unreferenced, f"private names nothing in the package uses: {unreferenced}"
