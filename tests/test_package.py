"""Hygiene of the package source, read with `ast`: every import is used
and every module-level private name has a reader."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "extremalcurves"
MODULES = sorted(SRC.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in MODULES}


def _loaded_names(tree, skip=None):
    """Names read in a tree, as a Name or an attribute, outside `skip`."""
    skipped = set(map(id, ast.walk(skip))) if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


# __init__.py imports are the package's public names, read by its users
@pytest.mark.parametrize("name", [n for n in TREES if n != "__init__.py"])
def test_no_unused_import(name):
    tree = TREES[name]
    used = _loaded_names(tree)
    assert [n for n in _imported_names(tree) if n not in used] == []


def _private_definitions(tree):
    """(name, node) of each module-level private function, class or
    constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def test_every_private_name_is_read():
    unread = []
    for name, tree in TREES.items():
        for private, node in _private_definitions(tree):
            if not private.startswith("_") or private.startswith("__"):
                continue
            readers = [other for other, t in TREES.items()
                       if private in _loaded_names(
                           t, skip=node if other == name else None)]
            if not readers:
                unread.append(f"{name}: {private}")
    assert unread == []
