"""tools/equivalence.py: its comparers find what differs, and on its cut-down
command list this checkout's outputs equal those of its HEAD commit, at one
and two FFT lanes. The second proves the harness runs end to end, not that
any change keeps outputs: an uncommitted change that moves an output fails
it until it is committed. It runs in a shared clone that carries this
checkout's ``src`` and ``tools``, so an interrupted run leaves its worktree
and temporary files there, not in this repository."""

import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from wring.fieldcore import Grid3, ScalarField, VectorField
from wring.wrg1 import write_fields

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "equivalence.py"


@pytest.fixture(scope="module")
def tool():
    if not TOOL.is_file():
        pytest.skip("no tools/ next to this checkout")
    spec = importlib.util.spec_from_file_location("equivalence", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_json_and_csv_changes(tool, tmp_path):
    a = {"bound": {"C": 2.0, "slack": 0.0}, "grid": {"n": [8, 8, 8]}, "family": "clebsch"}
    b = {"bound": {"C": 2.0 * (1 + 2**-52), "slack": 0.0}, "grid": {"n": [8, 8, 10]}, "family": "morse"}
    assert tool.json_changes(a, a) == {}
    changes = tool.json_changes(a, b)
    assert changes[".bound.C"] == pytest.approx(2**-52 / (1 + 2**-52))
    assert changes[".grid.n[2]"] == pytest.approx(0.2)
    assert changes[".family"] == float("inf")
    assert set(changes) == {".bound.C", ".grid.n[2]", ".family"}
    (tmp_path / "a.csv").write_text("t,H\n0,1.0\n1,2.0\n")
    (tmp_path / "b.csv").write_text("t,H\n0,1.0\n1,2.5\n")
    assert tool.csv_changes(str(tmp_path / "a.csv"), str(tmp_path / "b.csv")) == {"H": pytest.approx(0.2)}


def test_compare_names_each_differing_file(tool, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    for d, value, rc in ((first, 1.0, 0), (second, 1.5, 4)):
        d.mkdir()
        (d / "r.json").write_text(json.dumps({"gv": value}))
        (d / "00.rc").write_text(f"{rc}\n")
        (d / "00.stdout").write_text("same\n")
    lines = tool.compare(str(first), str(second))
    assert lines == [
        "  00.rc: exit 0 -> 4",
        "  r.json: sha256 differs",
        "    .gv: largest relative change 0.333",
    ]


def test_wrg1_changes_per_field_and_header(tool, tmp_path):
    grid = Grid3((8, 8, 8), (1.0, 1.0, 1.0))
    a = np.arange(3 * 512, dtype=float).reshape((3, 8, 8, 8))
    b = a.copy()
    b[2, 7, 7, 7] += 1.0
    paths = [str(tmp_path / f"{name}.wrg") for name in "abc"]
    write_fields(paths[0], {"W": VectorField(grid, a), "q": ScalarField(grid, a[0])}, {"gv": 1.0})
    write_fields(paths[1], {"W": VectorField(grid, b), "q": ScalarField(grid, a[0])}, {"gv": 1.25})
    (tmp_path / "c.wrg").write_bytes(b"not a bundle")
    assert tool.wrg1_changes(paths[0], paths[0]) == {}
    assert tool.wrg1_changes(paths[0], paths[1]) == {
        "header.meta.gv": pytest.approx(0.2),
        "W": pytest.approx(1.0 / a.max()),
    }
    assert tool.wrg1_changes(paths[0], paths[2]) == {"(not a readable WRG1 file)": float("inf")}


def test_quick_list_against_head_finds_no_difference(tmp_path):
    if shutil.which("git") is None or not TOOL.is_file():
        pytest.skip("needs git and tools/equivalence.py")
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True)
    if head.returncode != 0:
        pytest.skip("not a git checkout with a HEAD commit")
    clone = tmp_path / "clone"
    subprocess.run(["git", "clone", "--quiet", "--shared", str(ROOT), str(clone)], check=True, capture_output=True)
    ignore = shutil.ignore_patterns("__pycache__")
    for part in ("src", "tools"):
        shutil.rmtree(clone / part, ignore_errors=True)
        shutil.copytree(ROOT / part, clone / part, ignore=ignore)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    proc = subprocess.run(
        [sys.executable, str(clone / "tools" / "equivalence.py"), "HEAD", "--quick"],
        capture_output=True, text=True, timeout=600, env=dict(os.environ, TMPDIR=str(scratch)),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 differences"
    assert proc.stdout.count(": identical") == 3
