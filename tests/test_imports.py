"""Tooling checks: every name a module of the package imports is used in it,
no module imports an underscore name from another module of the package,
no module imports scipy, so every transform runs on numpy.fft, and the
declared dependencies are exactly the third-party imports (numpy). No
module writes into a field's array, and only fieldcore starts threads: no
other module imports threading or concurrent.futures, and no FFT call is
given a worker count, so the FFT lanes are the only parallelism. No module
imports concurrent.futures at module level; a fresh interpreter shows that
a command loads numpy.fft only if it transforms, the lane pool only if it
splits a stack over lanes, and no scipy module at all. ``import wring``
loads no module of the package, ``wring.selftest`` loads only for
``wring selftest``, every function the benchmark's tracer wraps is
there after ``import wring.cli``, and ``wring.wrg1`` takes only ``Grid3``
from fieldcore."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

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


def top_level_imports(source: str) -> list:
    """(line, top-level package) of every absolute import, function bodies included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return sorted(found)


def scipy_lines(source: str) -> list:
    """Lines that import scipy, a module of it or a name from it."""
    return [line for line, name in top_level_imports(source) if name == "scipy"]


@pytest.mark.parametrize("path", sorted(pathlib.Path(wring.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy(path):
    assert scipy_lines(path.read_text()) == []


def test_check_finds_scipy():
    source = (
        "import numpy as np\n"
        "import scipy.fft as sfft\n"
        "from scipy import special\n"
        "def transform(x):\n"
        "    from scipy.fft import rfftn\n"
        "    import os, scipy\n"
        "    from . import scipy_like\n"
    )
    assert scipy_lines(source) == [2, 3, 5, 6]


PYPROJECT = pathlib.Path(wring.__file__).parent.parent.parent / "pyproject.toml"


def test_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    if not PYPROJECT.is_file():
        pytest.skip("no pyproject.toml next to this checkout")
    declared = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    imported = {
        name
        for path in MODULES
        for _, name in top_level_imports(path.read_text())
        if name not in sys.stdlib_module_names and name not in ("__future__", "wring")
    }
    assert {re.split(r"[<>=!~; \[]", d, maxsplit=1)[0] for d in declared} == imported
    assert declared == ["numpy>=2.0"]


def test_wrg1_knows_no_field_type():
    # the container holds a grid and plain arrays, so of fieldcore it needs the grid only
    source = (pathlib.Path(wring.__file__).parent / "wrg1.py").read_text()
    names = [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module in ("fieldcore", "wring.fieldcore")
        for alias in node.names
    ]
    assert names == ["Grid3"]
    assert not re.search(r"\bimport\s+(wring\.)?fieldcore\b|from\s+(\.|wring)\s+import\s+.*\bfieldcore\b", source)


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
    """Lines of calls that pass ``workers=`` or call a ``set_workers``."""
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


def eager_heavy_imports(source: str) -> list:
    """Lines that import scipy or concurrent.futures, or a name from them,
    when the module is imported: outside every function body."""

    def heavy(name) -> bool:
        return (name or "").split(".")[0] in ("scipy", "concurrent")

    lines = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import) and any(heavy(a.name) for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and heavy(node.module):
            lines.append(node.lineno)
        pending.extend(ast.iter_child_nodes(node))
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(pathlib.Path(wring.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_eager_heavy_imports(path):
    assert eager_heavy_imports(path.read_text()) == []


def test_check_finds_eager_heavy_imports():
    source = (
        "import scipy.fft as sfft\n"
        "from concurrent.futures import wait\n"
        "try:\n"
        "    from scipy import special\n"
        "except ImportError:\n"
        "    special = None\n"
        "class Lanes:\n"
        "    import concurrent.futures\n"
        "    def pool(self):\n"
        "        from concurrent.futures import ThreadPoolExecutor\n"
        "def transform(x):\n"
        "    import scipy.fft as sfft\n"
        "    return sfft.rfftn(x, workers=2)\n"
        "import threading, numpy\n"
    )
    assert eager_heavy_imports(source) == [1, 2, 4, 8]
    # the function-level spellings stay visible to the thread and worker checks
    assert thread_imports(source) == [2, 8, 10, 14]
    assert fft_worker_lines(source) == [13]


COLD_START = """
import contextlib, io, json, sys
from wring import cli

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code

codes = [run(argv) for argv in json.loads(sys.argv[1])]
loaded = [m for m in ("numpy.fft", "concurrent.futures") if m in sys.modules]
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
pool = sys.modules["wring.fieldcore"]._LANES._pool is not None
selftest = "wring.selftest" in sys.modules
print(json.dumps({"codes": codes, "loaded": loaded, "scipy": scipy, "pool": pool, "selftest": selftest}))
"""


def fresh(*args) -> str:
    """stdout of a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(wring.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def cold_run(*argvs) -> dict:
    """Run ``cli.main`` on each argument list in one fresh interpreter; the
    exit codes, which of numpy.fft and concurrent.futures it loaded, the
    scipy modules it loaded, whether it built the FFT lanes' thread pool and
    whether it loaded ``wring.selftest``."""
    return json.loads(fresh("-c", COLD_START, json.dumps(argvs)))


def test_import_wring_loads_no_submodule():
    out = fresh("-c", "import sys, wring; print(sorted(m for m in sys.modules if m.startswith('wring.')))")
    assert out.strip() == "[]"


def test_cold_start_loads_no_fft_backend_or_pool():
    result = cold_run(
        ["thurston", "--fluxes", "1,1,1"],
        ["link", "--preset", "hopf"],
        ["--help"],
        ["link", "--samples", "many"],
    )
    assert result == {"codes": [0, 0, 0, 2], "loaded": [], "scipy": [], "pool": False, "selftest": False}


def test_generate_loads_the_fft_backend_but_builds_no_pool(tmp_path):
    # the benchmark's cold commands at n=32: no transform stack and no
    # pointwise kernel has more than fft_serial_max_points points a component
    g, gd = str(tmp_path / "g.wrg"), str(tmp_path / "gd.wrg")
    result = cold_run(
        ["generate", "--family", "clebsch", "--n", "32", "--shear", "x,z,0.3,1", "--out", g],
        ["analyze", g, "--bound", "--json", str(tmp_path / "report.json")],
        ["diffeo", g, "--shear", "x,z,0.3,1", "--out", gd],
        ["evolve", gd, "--steps", "2", "--series", str(tmp_path / "s.csv"), "--out", str(tmp_path / "e.wrg")],
    )
    assert result["codes"] == [0, 0, 0, 0]
    assert result["loaded"] == ["numpy.fft"]
    assert result["scipy"] == []
    assert not result["pool"]
    assert not result["selftest"]


def test_transforming_commands_load_no_scipy(tmp_path):
    field = str(tmp_path / "g.wrg")
    result = cold_run(
        ["generate", "--family", "clebsch", "--n", "16", "--shear", "x,z,0.3,1", "--out", field],
        ["analyze", field, "--bound", "--json", str(tmp_path / "report.json")],
        ["evolve", field, "--steps", "1", "--out", str(tmp_path / "e.wrg")],
    )
    assert result["codes"] == [0, 0, 0]
    assert result["scipy"] == []


def test_selftest_loads_only_for_its_command():
    result = cold_run(["selftest", "--criteria", "11"])
    assert result["codes"] == [0] and result["selftest"]


SPANS = pathlib.Path(wring.__file__).parent.parent.parent / "perfbench" / "spans.py"

RESOLVE_TARGETS = """
import functools, json, sys
import wring.cli

def resolves(module, attr):
    try:
        functools.reduce(getattr, attr.split("."), sys.modules[module])
    except (KeyError, AttributeError):
        return False
    return True

targets = json.loads(sys.argv[1])
print(json.dumps([t for t in targets if not resolves(*t)]))
"""


def test_benchmark_trace_targets_resolve_after_import_cli():
    # perfbench/spans.py wraps each (module, attribute) of TARGETS, looked up
    # in sys.modules right after ``import wring.cli``; read without importing it
    if not SPANS.is_file():
        pytest.skip("no perfbench/ next to this checkout")
    tree = ast.parse(SPANS.read_text())
    node = next(
        n.value for n in tree.body
        if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in n.targets)
    )
    targets = [list(t[:2]) for t in ast.literal_eval(node)]
    assert len(targets) > 20
    assert json.loads(fresh("-c", RESOLVE_TARGETS, json.dumps(targets))) == []
