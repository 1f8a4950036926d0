"""Output equivalence of this checkout against a git revision.

    python3 tools/equivalence.py REV [--quick]

Checks REV out into a temporary ``git worktree``, runs one fixed list of
``wring`` commands in fresh processes on both trees, at
``WRING_FFT_WORKERS`` 1 and 2, and compares exit codes and the sha256 of
stdout, stderr and every output file: REV against this checkout at each
lane count, and this checkout's two lane counts against each other. For a
file that differs it prints the largest relative change of every JSON
number (by key path) and CSV column that differs, and of every WRG1 field
(relative to the field's largest magnitude). WRG1 files are read with this
checkout's ``wring.wrg1.read_fields``.

The command list covers every family generated with and without a shear,
``diffeo``, ``analyze`` with ``--bound --richardson --density-out`` and with
``--eta velocity --bound``, an explicit ``ring1``/``ring2`` pair, the
``unlinked-rings`` pair at radius 1.8 and their ``analyze``, the n=64/96 inputs of the benchmark's
``analyze`` rotation, ``evolve --steps 3 --series --out`` at n=32 and n=64,
a non-cubic box, ``link`` on the hopf and quad presets, ``thurston`` and
``selftest --json``. ``--quick`` runs a cut-down list at n=16 in a few
seconds.

Exit codes: 0 when nothing differs, 1 when something does, 2 when REV
cannot be checked out.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from wring.errors import WringError  # noqa: E402
from wring.wrg1 import read_fields  # noqa: E402

LANES = ("1", "2")
SHEAR = "x,z,0.3,1"
FAMILIES = ("clebsch", "morse", "kupka", "beltrami", "rings", "unlinked-rings")
# an accepted explicit ring pair with tilted normals, inside the 2 pi box
EXPLICIT_RINGS = json.dumps({
    "ring1": {"center": [3.1, 3.1, 3.1], "radius": 1.0, "normal": [0.0, 0.6, 0.8]},
    "ring2": {"center": [4.1, 3.1, 3.1], "radius": 0.9, "normal": [0.0, 0.8, -0.6]},
})


def _generate(name, family, n, *extra):
    return ["generate", "--family", family, "--n", str(n), *extra, "--out", name + ".wrg"]


def _analyze(name, src, *flags):
    return ["analyze", src + ".wrg", *flags, "--json", name + ".json"]


QUICK = [
    _generate("c16", "clebsch", 16, "--shear", SHEAR),
    _analyze("c16-full", "c16", "--bound", "--richardson", "--density-out", "c16-density.wrg"),
    _analyze("c16-velocity", "c16", "--eta", "velocity", "--bound"),
    ["evolve", "c16.wrg", "--steps", "1", "--series", "e16.csv", "--out", "e16.wrg"],
    ["thurston", "--fluxes", "1,1,1", "--json", "thurston.json"],
]

FULL = (
    [_generate(f"{f}32", f, 32) for f in FAMILIES]
    + [_generate(f"{f}32-shear", f, 32, "--shear", SHEAR) for f in FAMILIES]
    + [_analyze(f"{f}32", f"{f}32") for f in FAMILIES]
    + [_analyze(f"{f}32-full", f"{f}32", "--bound", "--richardson", "--density-out", f"{f}32-density.wrg")
       for f in FAMILIES]
    + [
        _analyze("clebsch32-shear-full", "clebsch32-shear", "--bound", "--richardson",
                 "--density-out", "clebsch32-shear-density.wrg"),
        _analyze("clebsch32-shear-velocity", "clebsch32-shear", "--eta", "velocity", "--bound"),
        _generate("rings32-explicit", "rings", 32, "--params", EXPLICIT_RINGS),
        _analyze("rings32-explicit", "rings32-explicit"),
        _generate("unlinked32-wide", "unlinked-rings", 32, "--params", '{"radius": 1.8}'),
        _analyze("unlinked32-wide", "unlinked32-wide"),
        _generate("box32", "clebsch", 32, "--box", "6.283185307179586,4,9"),
        _analyze("box32-full", "box32", "--bound", "--richardson"),
        ["evolve", "box32.wrg", "--steps", "3", "--series", "box32-evolve.csv", "--out", "box32-evolve.wrg"],
        ["evolve", "clebsch32-shear.wrg", "--steps", "3", "--series", "e32.csv", "--out", "e32.wrg"],
        _generate("c64", "clebsch", 64),
        _generate("m64", "morse", 64),
        _generate("c96", "clebsch", 96),
        _generate("k64", "kupka", 64),
        _generate("b64", "beltrami", 64),
        _generate("r96", "rings", 96),
        _analyze("c64", "c64", "--bound", "--richardson"),
        _analyze("m64", "m64", "--bound"),
        _analyze("c96", "c96", "--eta", "velocity", "--bound"),
        _analyze("k64", "k64", "--bound"),
        _analyze("b64", "b64"),
        _analyze("r96", "r96"),
        ["diffeo", "c64.wrg", "--shear", SHEAR, "--out", "d64.wrg"],
        _analyze("d64", "d64"),
        _analyze("d64-full", "d64", "--bound", "--density-out", "d64-density.wrg"),
        ["evolve", "d64.wrg", "--steps", "3", "--series", "e64.csv", "--out", "e64.wrg"],
        ["link", "--preset", "hopf", "--json", "link.json"],
        ["link", "--preset", "quad", "--json", "link-quad.json"],
        ["thurston", "--fluxes", "1,1,1", "--slopes", "2,3,5", "--json", "thurston.json"],
        ["selftest", "--json", "selftest.json"],
    ]
)


def run_list(tree: str, commands: list, lanes: str, out: str) -> None:
    """Run ``commands`` in order in fresh interpreters on ``tree``'s package,
    in the directory ``out``, keeping each one's exit code, stdout and stderr
    there as NN.rc, NN.stdout and NN.stderr."""
    os.makedirs(out)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), WRING_FFT_WORKERS=lanes)
    for i, argv in enumerate(commands):
        proc = subprocess.run(
            [sys.executable, "-m", "wring.cli", *argv], cwd=out, env=env, capture_output=True, timeout=900
        )
        for ext, data in (("rc", b"%d\n" % proc.returncode), ("stdout", proc.stdout), ("stderr", proc.stderr)):
            with open(os.path.join(out, f"{i:02d}.{ext}"), "wb") as fh:
                fh.write(data)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if a == b else (math.inf if scale == 0.0 or math.isnan(scale) else abs(a - b) / scale)


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def json_changes(a, b, path="") -> dict:
    """{key path: relative change} of every JSON number that differs, and
    math.inf where the structure or a non-number differs."""
    if _number(a) and _number(b):
        return {path: _rel(a, b)} if a != b else {}
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return {k: v for key in a for k, v in json_changes(a[key], b[key], f"{path}.{key}").items()}
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return {k: v for i, (x, y) in enumerate(zip(a, b)) for k, v in json_changes(x, y, f"{path}[{i}]").items()}
    return {} if a == b else {path: math.inf}


def csv_changes(a: str, b: str) -> dict:
    """{column: largest relative change} of every CSV column that differs."""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        ra, rb = list(csv.reader(fa)), list(csv.reader(fb))
    if len(ra) != len(rb) or not ra or ra[0] != rb[0]:
        return {"(header or row count)": math.inf}
    out = {}
    for col, name in enumerate(ra[0]):
        worst = 0.0
        for x, y in zip(ra[1:], rb[1:]):
            if x[col] != y[col]:
                try:
                    worst = max(worst, _rel(float(x[col]), float(y[col])))
                except ValueError:
                    worst = math.inf
        if worst:
            out[name] = worst
    return out


def _wrg1(path: str):
    """(header, {name: array}) of a WRG1 file read by the package's own
    reader, or None where that reader refuses it."""
    try:
        grid, arrays, meta = read_fields(path)
    except WringError:
        return None
    header = {"grid": {"n": list(grid.n), "box": list(grid.box)}, "fields": list(arrays), "meta": meta}
    return header, arrays


def wrg1_changes(a: str, b: str) -> dict:
    """Header numbers as in ``json_changes``, and per field max|a - b| / max|a|
    where the field's bytes differ: 0 when only the sign of a zero does."""
    read_a, read_b = _wrg1(a), _wrg1(b)
    if read_a is None or read_b is None:
        return {"(not a readable WRG1 file)": math.inf}
    (ha, fa), (hb, fb) = read_a, read_b
    out = json_changes(ha, hb, "header")
    for name in fa.keys() & fb.keys():
        x, y = fa[name], fb[name]
        if x.shape != y.shape:
            out[name] = math.inf
        elif x.tobytes() != y.tobytes():
            diff, scale = float(np.max(np.abs(x - y))), float(np.max(np.abs(x)))
            out[name] = diff / scale if scale else (math.inf if diff else 0.0)
    return out


def json_file_changes(a: str, b: str) -> dict:
    with open(a) as fa, open(b) as fb:
        return json_changes(json.load(fa), json.load(fb))


CHANGES = {".json": json_file_changes, ".csv": csv_changes, ".wrg": wrg1_changes}


def compare(a: str, b: str) -> list:
    """Lines naming every artifact of run directory ``a`` that differs from
    ``b``, each followed by its largest relative changes."""
    lines = []
    for name in sorted(set(os.listdir(a)) | set(os.listdir(b))):
        pa, pb = os.path.join(a, name), os.path.join(b, name)
        if not (os.path.isfile(pa) and os.path.isfile(pb)):
            lines.append(f"  {name}: only in {'the first' if os.path.isfile(pa) else 'the second'} run")
            continue
        if _sha256(pa) == _sha256(pb):
            continue
        ext = os.path.splitext(name)[1]
        if ext == ".rc":
            with open(pa) as fa, open(pb) as fb:
                lines.append(f"  {name}: exit {fa.read().strip()} -> {fb.read().strip()}")
            continue
        lines.append(f"  {name}: sha256 differs")
        if ext in CHANGES:
            for key, rel in sorted(CHANGES[ext](pa, pb).items()):
                lines.append(f"    {key}: largest relative change {rel:.3g}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="git revision to compare this checkout against")
    ap.add_argument("--quick", action="store_true", help="the cut-down command list")
    args = ap.parse_args(argv)
    commands = QUICK if args.quick else FULL

    work = tempfile.mkdtemp(prefix="wring-equivalence-")
    worktree = os.path.join(work, "rev")
    add = subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", worktree, args.rev],
                         capture_output=True, text=True)
    if add.returncode != 0:
        print(f"cannot check out {args.rev}: {add.stderr.strip()}", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        return 2
    try:
        print(f"{len(commands)} commands; {args.rev} against {ROOT}")
        for i, argv in enumerate(commands):
            print(f"  {i:02d}: wring {' '.join(argv)}")
        runs = {}
        for tree, label in ((worktree, "rev"), (ROOT, "tree")):
            for lanes in LANES:
                runs[label, lanes] = os.path.join(work, f"{label}-lanes{lanes}")
                run_list(tree, commands, lanes, runs[label, lanes])
        total = 0
        pairs = [(("rev", w), ("tree", w)) for w in LANES] + [(("tree", LANES[0]), ("tree", LANES[1]))]
        for first, second in pairs:
            lines = compare(runs[first], runs[second])
            total += sum(1 for line in lines if not line.startswith("    "))
            verdict = "differs" if lines else "identical"
            print(f"{first[0]} at {first[1]} lane(s) vs {second[0]} at {second[1]} lane(s): {verdict}")
            for line in lines:
                print(line)
        print(f"{total} differences")
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", worktree], capture_output=True)
        shutil.rmtree(work, ignore_errors=True)
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
