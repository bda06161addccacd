"""Static checks on the package source: every module uses what it imports,
every module-level private name is referenced somewhere in the package, every
`__all__` entry is defined in its module, and every name the package
re-exports is in its module's `__all__`.

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


def _module_definitions(tree):
    """Names a module-level def, class or assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _private_definitions(tree):
    """Module-level `_name` functions, classes and assigned constants."""
    return (n for n in _module_definitions(tree) if n.startswith("_") and not n.startswith("__"))


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


def _all_entries(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_every_all_entry_is_defined_in_its_module(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    stale = sorted(set(_all_entries(tree)) - set(_module_definitions(tree)))
    assert not stale, f"{path.name} lists names in __all__ it never defines: {stale}"


def test_every_package_reexport_is_in_its_modules_all():
    tree = ast.parse((SRC / "__init__.py").read_text())
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.startswith("srtg."):
            module = SRC.joinpath(*node.module.split(".")[1:]).with_suffix(".py")
            entries = _all_entries(ast.parse(module.read_text()))
            missing += [f"{node.module}.{a.name}" for a in node.names if a.name not in entries]
    assert not missing, f"srtg/__init__.py re-exports names outside __all__: {missing}"
