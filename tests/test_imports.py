"""Tooling check: every name a module of the package imports is used in it."""

import ast
import pathlib

import pytest

import wring

MODULES = sorted(p for p in pathlib.Path(wring.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_finds_an_unused_name():
    source = "from .fieldcore import cross, dot\nimport numpy as np\n\nx = dot(np.zeros(3))\n"
    assert unused_imports(source) == [(1, "cross")]
