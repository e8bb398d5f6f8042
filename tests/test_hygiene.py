"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).resolve().parent.parent / "src" / "rbmlogic")
                 .glob("*.py") if p.name != "__init__.py")


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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _referenced_names(ast.parse(node.value, mode="eval"))
    return used


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
