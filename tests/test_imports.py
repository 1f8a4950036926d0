"""Tooling checks: every name a module of the package imports is used in it,
no module imports an underscore name from another module of the package,
no module calls numpy's FFT, so every transform runs on scipy.fft, no
module writes into a field's array, and only fieldcore starts threads:
no other module imports threading or concurrent.futures, and no scipy.fft
call is given a worker count, so the FFT lanes are the only parallelism."""

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


def numpy_fft_lines(source: str) -> list:
    """Lines that name np.fft or numpy.fft, or import numpy's fft module."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "fft" and getattr(node.value, "id", None) in ("np", "numpy"):
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name.startswith("numpy.fft") for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (
            node.module == "numpy.fft" or node.module == "numpy" and any(a.name == "fft" for a in node.names)
        ):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(pathlib.Path(wring.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_fft(path):
    assert numpy_fft_lines(path.read_text()) == []


def test_check_finds_numpy_fft():
    source = "import numpy as np\nimport numpy.fft\nfrom numpy import fft\n\ny = np.fft.rfft(np.ones(4))\n"
    assert numpy_fft_lines(source) == [2, 3, 5]


def private_imports(source: str) -> list:
    """(line, name) of each underscore name imported from a module of the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "wring"):
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(pathlib.Path(wring.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


def test_check_finds_a_private_import():
    source = (
        "from __future__ import annotations\n"
        "from .gv import _eta_parts, helicity\n"
        "from wring.fieldcore import _k1d\n"
        "from . import _private\n"
        "from os import _exit\n"
    )
    assert private_imports(source) == [(2, "_eta_parts"), (3, "_k1d"), (4, "_private")]


def data_writes(source: str) -> list:
    """Lines that assign to, or augment, a subscript of an attribute named
    ``data``, as in ``v.data[i] -= m``: a write into a field's samples."""

    def writes_data(target) -> bool:
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(writes_data(t) for t in target.elts)
        if isinstance(target, ast.Starred):
            return writes_data(target.value)
        while isinstance(target, ast.Subscript):
            target = target.value
            if isinstance(target, ast.Attribute) and target.attr == "data":
                return True
        return False

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(writes_data(t) for t in targets):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(pathlib.Path(wring.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_field_data_writes(path):
    assert data_writes(path.read_text()) == []


def test_check_finds_a_data_write():
    source = (
        "v.data[i] -= m\n"
        "v.data[0][1] = 0.0\n"
        "a, w.data[2] = 1.0, 2.0\n"
        "data[0] = 1.0\n"
        "v.data = v.data[::-1]\n"
        "x = v.data[0] + 1.0\n"
        "out[0] += v.data[0]\n"
    )
    assert data_writes(source) == [1, 2, 3]


# the module that owns the FFT lanes
THREADED = "fieldcore.py"


def thread_imports(source: str) -> list:
    """Lines that import threading or concurrent.futures, or a name from them."""

    def threaded(name) -> bool:
        return (name or "").split(".")[0] in ("threading", "concurrent")

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(threaded(a.name) for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and threaded(node.module):
            lines.append(node.lineno)
    return sorted(lines)


def fft_worker_lines(source: str) -> list:
    """Lines of calls that pass ``workers=`` or call scipy.fft's ``set_workers``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name == "set_workers" or any(k.arg == "workers" for k in node.keywords):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(pathlib.Path(wring.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_threads_only_in_fieldcore(path):
    source = path.read_text()
    assert fft_worker_lines(source) == []
    if path.name != THREADED:
        assert thread_imports(source) == []


def test_check_finds_threads_and_fft_workers():
    source = (
        "import threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import concurrent.futures as cf, os\n"
        "import scipy.fft as sfft\n"
        "x = sfft.rfftn(a, workers=2)\n"
        "with sfft.set_workers(2):\n"
        "    y = sfft.irfftn(x, s=(8, 8, 8))\n"
        "from os import cpu_count\n"
    )
    assert thread_imports(source) == [1, 2, 3]
    assert fft_worker_lines(source) == [5, 6]
