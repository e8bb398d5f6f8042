"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).resolve().parent.parent / "src" / "rbmlogic").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name each import binds, mapped to the line it is imported on."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside string annotations."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _referenced_names(ast.parse(node.value, mode="eval"))
    return used


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private (_name, not __dunder__) module-level functions, classes and
    assignments, mapped to the line each is defined on."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out |= {n: node.lineno for n in names if n.startswith("_") and not n.endswith("__")}
    return out


def _used_names(tree: ast.Module) -> set[str]:
    """Names a module loads, reads as attributes (``sampler._hidden_groups``) or
    imports; a recursive call counts as a use."""
    used = _referenced_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
    return used


def test_every_private_name_is_used():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE}
    used = set().union(*map(_used_names, trees.values()))
    dead = [f"{name}: {private} (line {line})" for name, tree in trees.items()
            for private, line in _private_definitions(tree).items() if private not in used]
    assert not dead, f"private names nothing in src/ uses: {', '.join(dead)}"


def test_the_check_sees_dead_private_names():
    tree = ast.parse("import numpy as _np\n"
                     "_USED, _DEAD = 1, 2\n"
                     "__all__ = ['f']\n"
                     "def _helper(): return _USED\n"
                     "def _unused(): pass\n"
                     "class _Attr: pass\n"
                     "def f(m): return _helper() + m._Attr\n")
    used = _used_names(tree)
    assert [n for n in _private_definitions(tree) if n not in used] == ["_DEAD", "_unused"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree).items()
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_the_check_sees_plain_and_string_annotation_uses():
    tree = ast.parse("from typing import Mapping, Sequence\n"
                     "import numpy as np\n"
                     "import os.path\n"
                     "def f(x: 'Mapping[str, int]') -> None:\n"
                     "    return np.zeros(1)\n")
    used = _referenced_names(tree)
    assert [n for n in _imported_names(tree) if n not in used] == ["Sequence", "os"]
